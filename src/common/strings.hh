/**
 * @file
 * String formatting helpers shared by reports, tables, and CSV output.
 */

#ifndef CHARLLM_COMMON_STRINGS_HH
#define CHARLLM_COMMON_STRINGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace charllm {

/**
 * Compact double formatting: trims trailing zeros ("1.5", "3", "0.25").
 * Byte-identical to printf's "%.*g" with @p max_precision, but
 * locale-free: exact integer arithmetic for normal doubles at
 * precision 0..17 whose scaling fits 128 bits, std::to_chars' general
 * form for everything else.
 */
std::string formatDouble(double value, int max_precision = 6);

/** Append formatDouble(@p value, @p max_precision) to @p out; at
 *  precision up to 40 it allocates nothing beyond @p out's growth. */
void appendDouble(std::string& out, double value, int max_precision);

/** Fixed-precision formatting ("12.34"). */
std::string formatFixed(double value, int precision);

/** Human-readable duration from seconds ("12.3 ms"). */
std::string formatSeconds(double seconds);

/** Join the parts with a separator. */
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/**
 * Escape a string for embedding inside a JSON string literal: quotes
 * and backslashes are backslash-escaped, control characters become
 * \n/\t/\r/\uXXXX. Every JSON writer in the repo (Chrome traces,
 * reports, metrics dumps) must route string payloads through this.
 */
std::string jsonEscape(const std::string& value);
std::string jsonEscape(const char* value);

/** Append jsonEscape(@p value) to @p out (a null @p value appends
 *  nothing); runs that need no escaping are appended in one piece. */
void appendJsonEscaped(std::string& out, const char* value);

/** printf-style formatting into a std::string. */
std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace charllm

#endif // CHARLLM_COMMON_STRINGS_HH
