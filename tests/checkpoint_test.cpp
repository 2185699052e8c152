/**
 * @file
 * Checkpoint format and streaming-session tests (docs/STREAMING.md):
 * byte-level round-trips, every typed rejection path of the loader,
 * signature binding, and segment-at-a-time StreamSession equivalence
 * (native seeded backends and the generic correction path) including
 * resume-from-checkpoint — bit-identical in the int ring, ULP-gated
 * for floats.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/checkpoint.h"
#include "kernels/registry.h"
#include "kernels/serial.h"
#include "kernels/stream.h"
#include "kernels/verify.h"
#include "util/compare.h"
#include "util/ring.h"

namespace {

using namespace plr::kernels;
using plr::FloatRing;
using plr::IntRing;
using plr::Signature;
using plr::TropicalRing;

Checkpoint
sample_checkpoint()
{
    const Signature sig({1.0, 0.5}, {2.0, -1.0});
    StreamSession<FloatRing> session(sig, nullptr, RunOptions{});
    std::vector<float> segment(32, 1.25f);
    session.feed(segment);
    session.feed(segment);
    return session.checkpoint();
}

/** Re-seal serialized bytes after a field edit (to reach deep checks). */
void
reseal(std::vector<std::uint8_t>& bytes)
{
    // Recompute Fletcher-32 over everything before the 4-byte seal,
    // decoded as little-endian u32 words — mirrors the writer.
    std::vector<std::uint32_t> words((bytes.size() - 4) / 4);
    for (std::size_t w = 0; w < words.size(); ++w)
        words[w] = static_cast<std::uint32_t>(bytes[4 * w]) |
                   (static_cast<std::uint32_t>(bytes[4 * w + 1]) << 8) |
                   (static_cast<std::uint32_t>(bytes[4 * w + 2]) << 16) |
                   (static_cast<std::uint32_t>(bytes[4 * w + 3]) << 24);
    const std::uint32_t s = plr::kernels::fletcher32(words.data(),
                                                     words.size());
    bytes[bytes.size() - 4] = static_cast<std::uint8_t>(s & 0xff);
    bytes[bytes.size() - 3] = static_cast<std::uint8_t>((s >> 8) & 0xff);
    bytes[bytes.size() - 2] = static_cast<std::uint8_t>((s >> 16) & 0xff);
    bytes[bytes.size() - 1] = static_cast<std::uint8_t>((s >> 24) & 0xff);
}

CheckpointErrorKind
parse_kind(std::span<const std::uint8_t> bytes)
{
    try {
        (void)parse_checkpoint(bytes);
    } catch (const CheckpointError& e) {
        return e.kind();
    }
    ADD_FAILURE() << "parse unexpectedly accepted " << bytes.size()
                  << " bytes";
    return CheckpointErrorKind::kIo;
}

TEST(CheckpointFormat, RoundTripsThroughBytes)
{
    const Checkpoint ckpt = sample_checkpoint();
    const auto bytes = serialize_checkpoint(ckpt);
    EXPECT_EQ(bytes.size(), 48u + 4u * (ckpt.order + ckpt.fir_taps));
    const Checkpoint back = parse_checkpoint(bytes);
    EXPECT_EQ(back.version, ckpt.version);
    EXPECT_EQ(back.domain, ckpt.domain);
    EXPECT_EQ(back.order, ckpt.order);
    EXPECT_EQ(back.fir_taps, ckpt.fir_taps);
    EXPECT_EQ(back.sig_hash, ckpt.sig_hash);
    EXPECT_EQ(back.segments, ckpt.segments);
    EXPECT_EQ(back.elements, ckpt.elements);
    EXPECT_EQ(back.y_words, ckpt.y_words);
    EXPECT_EQ(back.x_words, ckpt.x_words);
}

TEST(CheckpointFormat, RoundTripsThroughAFile)
{
    const Checkpoint ckpt = sample_checkpoint();
    const std::string path = ::testing::TempDir() + "/roundtrip.plrc";
    save_checkpoint(ckpt, path);
    const Checkpoint back = load_checkpoint(path);
    EXPECT_EQ(back.y_words, ckpt.y_words);
    EXPECT_EQ(back.elements, ckpt.elements);
}

TEST(CheckpointFormat, MissingFileIsATypedIoError)
{
    try {
        (void)load_checkpoint(::testing::TempDir() + "/does-not-exist.plrc");
        FAIL() << "load accepted a missing file";
    } catch (const CheckpointError& e) {
        EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
    }
}

TEST(CheckpointFormat, RejectsBadMagic)
{
    auto bytes = serialize_checkpoint(sample_checkpoint());
    bytes[0] = 'X';
    EXPECT_EQ(parse_kind(bytes), CheckpointErrorKind::kBadMagic);
}

TEST(CheckpointFormat, RejectsVersionSkew)
{
    auto bytes = serialize_checkpoint(sample_checkpoint());
    bytes[4] = 99;
    reseal(bytes);  // even a well-sealed future version is rejected
    EXPECT_EQ(parse_kind(bytes), CheckpointErrorKind::kVersionSkew);
}

TEST(CheckpointFormat, RejectsEveryTruncation)
{
    const auto bytes = serialize_checkpoint(sample_checkpoint());
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        const std::span<const std::uint8_t> prefix(bytes.data(), keep);
        EXPECT_EQ(parse_kind(prefix), CheckpointErrorKind::kTruncated)
            << "prefix of " << keep << " bytes";
    }
}

TEST(CheckpointFormat, RejectsTrailingBytes)
{
    auto bytes = serialize_checkpoint(sample_checkpoint());
    bytes.push_back(0);
    EXPECT_EQ(parse_kind(bytes), CheckpointErrorKind::kMalformed);
}

TEST(CheckpointFormat, RejectsBitFlipAsCorrupt)
{
    auto bytes = serialize_checkpoint(sample_checkpoint());
    bytes[24] ^= 0x10;  // inside the signature hash
    EXPECT_EQ(parse_kind(bytes), CheckpointErrorKind::kCorrupt);
}

TEST(CheckpointFormat, RejectsUnknownDomain)
{
    auto bytes = serialize_checkpoint(sample_checkpoint());
    bytes[8] = 9;
    reseal(bytes);
    EXPECT_EQ(parse_kind(bytes), CheckpointErrorKind::kMalformed);
}

TEST(CheckpointFormat, RejectsAbsurdOrder)
{
    auto bytes = serialize_checkpoint(sample_checkpoint());
    bytes[12] = 0xff;  // order 255 > kCheckpointMaxOrder
    reseal(bytes);
    EXPECT_EQ(parse_kind(bytes), CheckpointErrorKind::kMalformed);
}

TEST(CheckpointFormat, BindsToSignatureAndDomain)
{
    const Checkpoint ckpt = sample_checkpoint();
    const Signature sig({1.0, 0.5}, {2.0, -1.0});
    EXPECT_NO_THROW(validate_checkpoint_for(ckpt, sig, Domain::kFloat));

    try {
        validate_checkpoint_for(ckpt, sig, Domain::kInt);
        FAIL() << "accepted the wrong domain";
    } catch (const CheckpointError& e) {
        EXPECT_EQ(e.kind(), CheckpointErrorKind::kSignatureMismatch);
    }
    try {
        validate_checkpoint_for(ckpt, Signature({1.0}, {2.0, -1.0}),
                                Domain::kFloat);
        FAIL() << "accepted a different signature";
    } catch (const CheckpointError& e) {
        EXPECT_EQ(e.kind(), CheckpointErrorKind::kSignatureMismatch);
    }
}

TEST(CheckpointFormat, SignatureHashSeparatesRecurrences)
{
    const Signature a({1.0}, {2.0, -1.0});
    const Signature b({1.0}, {2.0, 1.0});
    EXPECT_NE(signature_hash(a, Domain::kInt), signature_hash(b, Domain::kInt));
    EXPECT_NE(signature_hash(a, Domain::kInt),
              signature_hash(a, Domain::kFloat));
    const Signature trop = Signature::max_plus({0.0}, {-0.5});
    const Signature plain({1.0}, {-0.5});
    EXPECT_NE(signature_hash(trop, Domain::kTropical),
              signature_hash(plain, Domain::kTropical));
}

// --- StreamSession equivalence -----------------------------------------

std::vector<std::int32_t>
int_input(std::size_t n)
{
    std::vector<std::int32_t> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = static_cast<std::int32_t>((i * 2654435761u) % 201) - 100;
    return x;
}

/** Stream @p input through @p kernel in @p segment_len pieces. */
std::vector<std::int32_t>
stream_int(const Signature& sig, const char* kernel_name,
           std::span<const std::int32_t> input, std::size_t segment_len,
           RunOptions opts = {})
{
    const KernelInfo* kernel =
        kernel_name != nullptr ? find_kernel(kernel_name) : nullptr;
    if (kernel_name != nullptr)
        EXPECT_NE(kernel, nullptr) << kernel_name;
    StreamSession<IntRing> session(sig, kernel, opts);
    std::vector<std::int32_t> out;
    for (std::size_t base = 0; base < input.size(); base += segment_len) {
        const std::size_t len =
            std::min(segment_len, input.size() - base);
        const auto part = session.feed(input.subspan(base, len));
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

TEST(StreamSession, SegmentedIntStreamsAreBitIdentical)
{
    // Native seeded backends and the generic correction path, against
    // the one-shot serial reference. Wrap-around int arithmetic is a
    // ring homomorphism, so every route must agree bit-for-bit.
    for (const char* sig_text : {"(1: 1)", "(1: 2,-1)", "(1, 3: 1,1)"}) {
        const Signature sig = Signature::parse(sig_text);
        const auto input = int_input(1024);
        const auto want = serial_recurrence<IntRing>(sig, input);
        for (const char* kernel :
             {"cpu_simd", "plr_sim", "scan",
              static_cast<const char*>(nullptr)}) {
            if (kernel != nullptr) {
                const KernelInfo* info = find_kernel(kernel);
                ASSERT_NE(info, nullptr);
                if (!info->supports(sig, Domain::kInt))
                    continue;
            }
            RunOptions opts;
            opts.threads = 3;
            opts.chunk = 64;
            for (std::size_t segment : {96u, 256u, 1024u}) {
                const auto got = stream_int(sig, kernel, input, segment, opts);
                EXPECT_EQ(got, want)
                    << (kernel ? kernel : "serial") << " " << sig_text
                    << " segment " << segment;
            }
        }
    }
}

TEST(StreamSession, ResumeFromCheckpointIsBitIdentical)
{
    const Signature sig = Signature::parse("(1: 2,-1)");
    const auto input = int_input(768);
    const auto want = serial_recurrence<IntRing>(sig, input);
    const std::span<const std::int32_t> view(input);

    for (const char* kernel_name : {"cpu_simd", "plr_sim"}) {
        const KernelInfo* kernel = find_kernel(kernel_name);
        ASSERT_NE(kernel, nullptr);
        RunOptions opts;
        opts.threads = 2;
        StreamSession<IntRing> first(sig, kernel, opts);
        auto out = first.feed(view.subspan(0, 512));
        const Checkpoint ckpt = first.checkpoint();
        EXPECT_EQ(ckpt.elements, 512u);

        // Round-trip through bytes, then continue in a new session.
        const Checkpoint back = parse_checkpoint(serialize_checkpoint(ckpt));
        auto resumed =
            StreamSession<IntRing>::resume_from(back, sig, kernel, opts);
        const auto tail = resumed.feed(view.subspan(512));
        out.insert(out.end(), tail.begin(), tail.end());
        EXPECT_EQ(out, want) << kernel_name;
    }
}

TEST(StreamSession, FloatAndTropicalStreamsStayWithinGates)
{
    // Stable float IIR filter through cpu_simd (native seeded SIMD path).
    {
        const Signature sig = Signature::parse("(1: 0.5)");
        std::vector<float> input(640);
        for (std::size_t i = 0; i < input.size(); ++i)
            input[i] = static_cast<float>((i % 17)) * 0.25f - 2.0f;
        const auto want = serial_recurrence<FloatRing>(sig, input);
        StreamSession<FloatRing> session(sig, find_kernel("cpu_simd"),
                                         RunOptions{});
        std::vector<float> got;
        const std::span<const float> view(input);
        for (std::size_t base = 0; base < input.size(); base += 100) {
            const std::size_t len = std::min<std::size_t>(100,
                                                          input.size() - base);
            const auto part = session.feed(view.subspan(base, len));
            got.insert(got.end(), part.begin(), part.end());
        }
        const auto v = plr::validate_ulp(want, got, 512, 1e-3);
        EXPECT_TRUE(v.ok) << v.describe();
    }
    // Decaying running maximum in the max-plus semiring: the generic
    // correction path must work without subtraction.
    {
        const Signature sig = Signature::max_plus({0.0}, {-1.5});
        std::vector<float> input(300);
        for (std::size_t i = 0; i < input.size(); ++i)
            input[i] = static_cast<float>((i * 7) % 23) - 11.0f;
        const auto want = serial_recurrence<TropicalRing>(sig, input);
        StreamSession<TropicalRing> session(sig, find_kernel("cpu_simd"),
                                            RunOptions{});
        std::vector<float> got;
        const std::span<const float> view(input);
        for (std::size_t base = 0; base < input.size(); base += 64) {
            const std::size_t len = std::min<std::size_t>(64,
                                                          input.size() - base);
            const auto part = session.feed(view.subspan(base, len));
            got.insert(got.end(), part.begin(), part.end());
        }
        const auto v = plr::validate_ulp(want, got, 0, 0.0);
        EXPECT_TRUE(v.ok) << v.describe();
    }
}

TEST(StreamSession, RejectsCheckpointFromAnotherRecurrence)
{
    const Signature sig = Signature::parse("(1: 2,-1)");
    StreamSession<IntRing> session(sig, nullptr, RunOptions{});
    std::vector<std::int32_t> seg(64, 1);
    session.feed(seg);
    const Checkpoint ckpt = session.checkpoint();

    const Signature other = Signature::parse("(1: 1,1)");
    try {
        (void)StreamSession<IntRing>::resume_from(ckpt, other, nullptr,
                                                  RunOptions{});
        FAIL() << "resume accepted a foreign checkpoint";
    } catch (const CheckpointError& e) {
        EXPECT_EQ(e.kind(), CheckpointErrorKind::kSignatureMismatch);
    }
}

}  // namespace
