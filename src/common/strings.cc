#include "common/strings.hh"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace charllm {

std::string
formatDouble(double value, int max_precision)
{
    std::string out;
    appendDouble(out, value, max_precision);
    return out;
}

namespace {

using u128 = unsigned __int128;

/** 5^k for k = 0..54: 5^54 < 2^127, so twice a remainder below it
 *  cannot wrap. */
constexpr auto kPow5 = [] {
    std::array<u128, 55> pow{};
    pow[0] = 1;
    for (std::size_t k = 1; k < pow.size(); ++k)
        pow[k] = pow[k - 1] * 5;
    return pow;
}();

/** 10^k for k = 0..17: the digit-count bounds of precisions 1..17. */
constexpr auto kPow10 = [] {
    std::array<std::uint64_t, 18> pow{};
    pow[0] = 1;
    for (std::size_t k = 1; k < pow.size(); ++k)
        pow[k] = pow[k - 1] * 10;
    return pow;
}();

/** "00".."99": two decimal digits per table lookup. */
constexpr auto kDigitPairs = [] {
    std::array<char, 200> pairs{};
    for (int i = 0; i < 100; ++i) {
        pairs[2 * i] = static_cast<char>('0' + i / 10);
        pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return pairs;
}();

int
bitWidth(u128 x)
{
    auto hi = static_cast<std::uint64_t>(x >> 64);
    auto lo = static_cast<std::uint64_t>(x);
    if (hi != 0)
        return 128 - __builtin_clzll(hi);
    return lo != 0 ? 64 - __builtin_clzll(lo) : 0;
}

/**
 * The fraction a floor drops, as rounding needs it: zero, below one
 * half, one half, above one half.
 */
enum class Frac { Zero, Below, Half, Above };

/** The class of @p rem / @p den (@p den below 2^127, so 2 * rem cannot
 *  wrap). */
Frac
fracOf(u128 rem, u128 den)
{
    if (rem == 0)
        return Frac::Zero;
    u128 twice = 2 * rem;
    return twice < den ? Frac::Below : twice == den ? Frac::Half
                                                     : Frac::Above;
}

/**
 * floor(m * 2^e * 10^s) into @p q and the fraction it drops into
 * @p frac, computed exactly as (m * 5^s) * 2^(e+s) or
 * m * 2^(e+s) / 5^-s. False when an operand would not fit in 128 bits:
 * the caller falls back.
 */
bool
scaleExact(std::uint64_t m, int e, int s, u128& q, Frac& frac)
{
    int shift = e + s;
    if (s >= 0) {
        // m < 2^53 and 5^32 < 2^75, so the product fits.
        if (s > 32)
            return false;
        u128 num = m * kPow5[static_cast<std::size_t>(s)];
        if (shift >= 0) {
            if (bitWidth(num) + shift > 128)
                return false;
            q = num << shift;
            frac = Frac::Zero;
            return true;
        }
        if (-shift > 126)
            return false;
        q = num >> -shift;
        frac = fracOf(num & ((u128{1} << -shift) - 1), u128{1} << -shift);
        return true;
    }
    if (-s >= static_cast<int>(kPow5.size()))
        return false;
    u128 num = m;
    u128 den = kPow5[static_cast<std::size_t>(-s)];
    // Keep den below 2^127 for fracOf().
    if (shift >= 0 ? bitWidth(num) + shift > 128
                   : bitWidth(den) - shift > 127)
        return false;
    if (shift >= 0)
        num <<= shift;
    else
        den <<= -shift;
    u128 rem;
    if ((num >> 64) == 0 && (den >> 64) == 0) {
        auto n = static_cast<std::uint64_t>(num);
        auto d = static_cast<std::uint64_t>(den);
        q = n / d;
        rem = n % d;
    } else {
        q = num / den;
        rem = num % den;
    }
    frac = fracOf(rem, den);
    return true;
}

/** Write the @p n digits of @p value ending at @p end. */
void
writeDigits(char* end, std::uint64_t value, int n)
{
    for (; n >= 8; n -= 8) {
        auto low = static_cast<std::uint32_t>(value % 100000000);
        value /= 100000000;
        for (int k = 0; k < 4; ++k) {
            end -= 2;
            std::memcpy(end, &kDigitPairs[2 * (low % 100)], 2);
            low /= 100;
        }
    }
    auto rest = static_cast<std::uint32_t>(value);
    for (; n >= 2; n -= 2) {
        end -= 2;
        std::memcpy(end, &kDigitPairs[2 * (rest % 100)], 2);
        rest /= 100;
    }
    if (n == 1)
        *--end = static_cast<char>('0' + rest);
}

/**
 * printf's "%.*g" of the finite, normal, nonzero @p value at
 * @p precision 1..17, by exact integer arithmetic; false when the
 * scaled value leaves scaleExact()'s 128-bit window.
 */
bool
appendExact(std::string& out, double value, int precision)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                            (std::uint64_t{1} << 52);
    const int e = static_cast<int>((bits >> 52) & 0x7ff) - 1075;

    // |value| = m * 2^e with m in [2^52, 2^53), so its decimal
    // exponent x is floor((e + 52) * log10(2)) or one more. Scale for
    // the lower one; when that leaves P + 1 digits, one more decade
    // moves the last digit into the dropped fraction.
    int x = ((e + 52) * 78913) >> 18;
    const auto lo = kPow10[static_cast<std::size_t>(precision - 1)];
    const auto hi = kPow10[static_cast<std::size_t>(precision)];
    u128 q;
    Frac frac;
    if (!scaleExact(m, e, precision - 1 - x, q, frac) || q < lo)
        return false;
    auto digits = static_cast<std::uint64_t>(q); // below 10^(P+1)
    if (digits >= hi) {
        const auto last = digits % 10;
        digits /= 10;
        ++x;
        if (last == 5)
            frac = frac == Frac::Zero ? Frac::Half : Frac::Above;
        else if (last != 0 || frac != Frac::Zero)
            frac = last < 5 ? Frac::Below : Frac::Above;
    }
    // Round half to even; a carry to 10^P moves one decade up.
    if (frac == Frac::Above ||
        (frac == Frac::Half && (digits & 1) != 0))
        ++digits;
    if (digits == hi) {
        digits = lo;
        ++x;
    }
    // Drop trailing zeros, up to 8 at a time; digits > 0, so at least
    // one digit stays.
    int n = precision;
    if (digits % 10 == 0) {
        while (digits % 100000000 == 0) {
            digits /= 100000000;
            n -= 8;
        }
        if (digits % 10000 == 0) {
            digits /= 10000;
            n -= 4;
        }
        if (digits % 100 == 0) {
            digits /= 100;
            n -= 2;
        }
        if (digits % 10 == 0) {
            digits /= 10;
            n -= 1;
        }
    }

    // The longest text is 24 bytes, "-0.0000" and 17 digits; the
    // window keeps |x| below 100, so an exponent has two digits.
    char buf[32];
    char* p = buf;
    if ((bits >> 63) != 0)
        *p++ = '-';
    if (x < -4 || x >= precision) {
        writeDigits(p + n + 1, digits, n);
        p[0] = p[1];
        if (n > 1) {
            p[1] = '.';
            p += n + 1;
        } else {
            p += 1;
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        const int ax = x < 0 ? -x : x;
        std::memcpy(p, &kDigitPairs[static_cast<std::size_t>(2 * ax)], 2);
        p += 2;
    } else if (x >= 0 && n <= x + 1) {
        writeDigits(p + n, digits, n);
        p += n;
        std::memset(p, '0', static_cast<std::size_t>(x + 1 - n));
        p += x + 1 - n;
    } else if (x >= 0) {
        writeDigits(p + n + 1, digits, n);
        std::memmove(p, p + 1, static_cast<std::size_t>(x + 1));
        p[x + 1] = '.';
        p += n + 1;
    } else {
        *p++ = '0';
        *p++ = '.';
        std::memset(p, '0', static_cast<std::size_t>(-x - 1));
        p += -x - 1;
        writeDigits(p + n, digits, n);
        p += n;
    }
    out.append(buf, p);
    return true;
}

} // namespace

void
appendDouble(std::string& out, double value, int max_precision)
{
    // printf's "%.*g" in the "C" locale. Finite doubles at precision
    // 0..17 take the exact integer path; subnormals, values whose
    // scaling leaves its 128-bit window, larger precisions, infinities
    // and NaNs take std::to_chars' general form, which the standard
    // specifies as the same "%.*g". 64 bytes hold any precision up to
    // 40.
    const int precision = max_precision == 0 ? 1 : max_precision;
    if (precision >= 1 && precision <= 17 && std::isfinite(value)) {
        if (value == 0.0) {
            out += std::signbit(value) ? "-0" : "0";
            return;
        }
        if (std::isnormal(value) && appendExact(out, value, precision))
            return;
    }
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                   std::chars_format::general,
                                   max_precision);
    if (ec == std::errc())
        out.append(buf, end);
    else
        out += strprintf("%.*g", max_precision, value);
}

std::string
formatFixed(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
formatSeconds(double seconds)
{
    char buf[64];
    double v = std::fabs(seconds);
    if (v >= 1.0)
        std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
    else if (v >= 1e-3)
        std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
    else if (v >= 1e-6)
        std::snprintf(buf, sizeof(buf), "%.3f us", seconds * 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.1f ns", seconds * 1e9);
    return buf;
}

std::string
join(const std::vector<std::string>& parts, const std::string& sep)
{
    std::string result;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            result += sep;
        result += parts[i];
    }
    return result;
}

namespace {

void
appendEscaped(std::string& out, const char* text, std::size_t size)
{
    std::size_t run = 0; // start of the pending verbatim run
    for (std::size_t i = 0; i < size; ++i) {
        auto c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(text + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          }
        }
    }
    out.append(text + run, size - run);
}

} // namespace

std::string
jsonEscape(const std::string& value)
{
    std::string out;
    out.reserve(value.size());
    appendEscaped(out, value.data(), value.size());
    return out;
}

std::string
jsonEscape(const char* value)
{
    std::string out;
    appendJsonEscaped(out, value);
    return out;
}

void
appendJsonEscaped(std::string& out, const char* value)
{
    if (value != nullptr)
        appendEscaped(out, value, std::strlen(value));
}

std::string
strprintf(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string result(static_cast<std::size_t>(len), '\0');
    std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return result;
}

} // namespace charllm
