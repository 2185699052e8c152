#ifndef PLR_TESTS_TEST_NAMES_H_
#define PLR_TESTS_TEST_NAMES_H_

/**
 * @file
 * Stable gtest names for parameterized suites whose cases carry a
 * signature string. Without a name generator gtest prints a struct
 * parameter as raw bytes — including the address of its `const char*`
 * field, which ASLR moves on every run — and CMake's test discovery
 * copies those bytes into the ctest name. The names built here come
 * from the case's own fields and use only [A-Za-z0-9_].
 */

#include <string>
#include <string_view>

namespace plr::test_names {

/**
 * Spell signature text as an identifier: "(0.9, -0.9: 0.8)" becomes
 * "a0p9_m0p9_b0p8" ('a' before the map coefficients, 'b' before the
 * feedback ones, '_' between coefficients, 'm' for minus, 'p' for the
 * decimal point).
 */
inline std::string
signature_slug(std::string_view text)
{
    std::string out = "a";
    for (const char c : text) {
        if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z'))
            out += c;
        else if (c == ',')
            out += '_';
        else if (c == ':')
            out += "_b";
        else if (c == '-')
            out += 'm';
        else if (c == '.')
            out += 'p';
    }
    return out;
}

}  // namespace plr::test_names

#endif  // PLR_TESTS_TEST_NAMES_H_
