/**
 * @file
 * Properties of the signature corpus and the reproducer string format
 * (ctest label: conformance).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "dsp/filter_design.h"
#include "util/diag.h"
#include "testing/chunked_reference.h"
#include "testing/corpus.h"
#include "testing/repro.h"

namespace plr::testing {
namespace {

TEST(Corpus, TableOneHasElevenPaperRows)
{
    const auto corpus = table1_corpus();
    std::size_t paper_rows = 0;
    for (const auto& entry : corpus)
        if (entry.name.find('@') == std::string::npos)
            ++paper_rows;
    EXPECT_EQ(paper_rows, 11u);
}

TEST(Corpus, EntryNamesAreUnique)
{
    std::set<std::string> names;
    for (const auto& entry : full_corpus(1, 3))
        EXPECT_TRUE(names.insert(entry.name).second)
            << "duplicate corpus name " << entry.name;
}

TEST(Corpus, GeneratorsAreDeterministicInTheSeed)
{
    const auto a = full_corpus(0xABCD, 2);
    const auto b = full_corpus(0xABCD, 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].sig, b[i].sig);
    }
    const auto c = full_corpus(0xEF01, 2);
    bool any_different = false;
    for (std::size_t i = 0; i < a.size() && i < c.size(); ++i)
        if (!(a[i].sig == c[i].sig))
            any_different = true;
    EXPECT_TRUE(any_different) << "different seeds produced the same corpus";
}

TEST(Corpus, GeneratorFamiliesHaveTheirDefiningProperties)
{
    Rng rng(42);
    for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(random_int_signature(rng).is_integral());
        EXPECT_TRUE(dsp::is_stable(random_stable_filter(rng)));
        EXPECT_FALSE(dsp::is_stable(random_unstable_filter(rng)));
        const auto denormal = near_denormal_decay_filter(rng);
        EXPECT_TRUE(dsp::is_stable(denormal));
        EXPECT_LT(dsp::spectral_radius(denormal), 0.05);
        const auto periodic = periodic_factor_signature(rng);
        EXPECT_TRUE(periodic.is_integral());
        EXPECT_EQ(std::abs(periodic.b().back()), 1.0);
        EXPECT_TRUE(random_tropical_signature(rng).is_max_plus());
    }
}

TEST(Corpus, SizesCoverDegenerateShapes)
{
    const auto sizes = conformance_sizes(64, 3);
    auto contains = [&](std::size_t n) {
        return std::find(sizes.begin(), sizes.end(), n) != sizes.end();
    };
    EXPECT_TRUE(contains(0));
    EXPECT_TRUE(contains(1));
    EXPECT_TRUE(contains(2));   // n < k for k = 3
    EXPECT_TRUE(contains(3));   // n == k
    EXPECT_TRUE(contains(63));  // one short of a chunk
    EXPECT_TRUE(contains(64));  // exactly one chunk
    EXPECT_TRUE(contains(65));  // partial trailing chunk
    EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
    EXPECT_EQ(std::set<std::size_t>(sizes.begin(), sizes.end()).size(),
              sizes.size());
}

TEST(Corpus, InputSynthesisIsSeedStablePrefixConsistent)
{
    // Shrinking replays at smaller n; that only makes sense if the first
    // n values are a prefix of the longer sequence.
    const auto long_ints = conformance_input_int(100, 7);
    const auto short_ints = conformance_input_int(40, 7);
    for (std::size_t i = 0; i < short_ints.size(); ++i)
        EXPECT_EQ(short_ints[i], long_ints[i]);
    const auto long_floats = conformance_input_float(Domain::kFloat, 100, 7);
    const auto short_floats = conformance_input_float(Domain::kFloat, 40, 7);
    for (std::size_t i = 0; i < short_floats.size(); ++i)
        EXPECT_EQ(short_floats[i], long_floats[i]);
}

TEST(Repro, EncodeParseRoundTripsAllFields)
{
    ConformanceFailure failure{
        "plr_sim",
        "table1/2nd-order-prefix-sum",
        Domain::kInt,
        Signature({1.0, -0.5}, {2.0, -1.0}),
        Check::kChunkInvariance,
        145,
        {64, 3},
        0xDEADBEEFull,
        "detail"};
    const auto repro = parse_reproducer(failure.reproducer());
    EXPECT_EQ(repro.kernel, "plr_sim");
    EXPECT_EQ(repro.domain, Domain::kInt);
    EXPECT_EQ(repro.check, Check::kChunkInvariance);
    EXPECT_EQ(repro.n, 145u);
    EXPECT_EQ(repro.run.chunk, 64u);
    EXPECT_EQ(repro.run.threads, 3u);
    EXPECT_EQ(repro.input_seed, 0xDEADBEEFull);
    EXPECT_EQ(repro.signature(), failure.sig);
}

TEST(Repro, CoefficientsRoundTripAtFullPrecision)
{
    // Table 1's filter coefficients are not short decimals; the encoding
    // must reproduce them bit-exactly, not to 6 digits.
    const auto sig = dsp::lowpass(0.8, 3);
    ConformanceFailure failure{"scan",   "t", Domain::kFloat, sig,
                               Check::kDifferential, 10, {}, 1, "d"};
    const auto repro = parse_reproducer(failure.reproducer());
    EXPECT_EQ(repro.signature(), sig);
}

TEST(Repro, TropicalSignaturesRoundTrip)
{
    const auto sig = Signature::max_plus({0.0, -0.25}, {-0.7, -1.3});
    ConformanceFailure failure{"cpu_simd", "t", Domain::kTropical, sig,
                               Check::kDifferential, 10, {}, 1, "d"};
    const auto repro = parse_reproducer(failure.reproducer());
    EXPECT_TRUE(repro.signature().is_max_plus());
    EXPECT_EQ(repro.signature(), sig);
}

TEST(Repro, MalformedLinesAreRejected)
{
    EXPECT_THROW(parse_reproducer("not a repro line"), FatalError);
    EXPECT_THROW(parse_reproducer("plr-repro:v1 kernel=x"), FatalError);
    EXPECT_THROW(parse_reproducer("plr-repro:v1 kernel=x domain=int "
                                  "check=differential a=1 b=nope n=1 seed=1"),
                 FatalError);
    EXPECT_THROW(parse_reproducer("plr-repro:v1 kernel=x domain=martian "
                                  "check=differential a=1 b=1 n=1 seed=1"),
                 FatalError);
}

TEST(Registry, AllProductionKernelsAreDiscoverable)
{
    const auto names = kernels::kernel_names();
    for (const char* expected :
         {"serial", "plr_sim", "cpu_simd", "scan", "cublike", "samlike"})
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected << " missing from the kernel registry";
    EXPECT_NE(kernels::find_kernel("plr_sim"), nullptr);
    EXPECT_EQ(kernels::find_kernel("no_such_kernel"), nullptr);
    const auto* serial = kernels::find_kernel("serial");
    ASSERT_NE(serial, nullptr);
    EXPECT_TRUE(serial->is_reference);
}

}  // namespace
}  // namespace plr::testing
