#include "common/strings.hh"

#include <charconv>
#include <cmath>
#include <cstdarg>
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

void
appendDouble(std::string& out, double value, int max_precision)
{
    // std::to_chars' general form is specified as printf's "%.*g" in
    // the "C" locale. 64 bytes hold any precision up to 40.
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
formatBytes(double bytes)
{
    static const char* suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
    double v = std::fabs(bytes);
    int idx = 0;
    while (v >= 1024.0 && idx < 5) {
        v /= 1024.0;
        ++idx;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f %s",
                  bytes < 0 ? -v : v, suffixes[idx]);
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
