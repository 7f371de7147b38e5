/**
 * @file
 * Error and status reporting helpers, following the gem5 convention:
 * fatal() for user errors (bad configuration), panic() for internal
 * invariant violations, warn() for advisory messages.
 */

#ifndef CHARLLM_COMMON_LOGGING_HH
#define CHARLLM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace charllm {

namespace detail {

/** Stream-compose a message from variadic parts. */
template <typename... Args>
std::string
composeMessage(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] inline void
exitFatal(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

[[noreturn]] inline void
exitPanic(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

} // namespace detail

/** A config problems list: one message per broken range (DESIGN §9). */
using Problems = std::vector<std::string>;

/** Append the message composed of @p why to @p problems unless @p ok. */
template <typename... Args>
void
require(Problems& problems, bool ok, const Args&... why)
{
    if (!ok)
        problems.push_back(detail::composeMessage(why...));
}

} // namespace charllm

/** Terminate due to a user-caused error (invalid configuration etc.). */
#define CHARLLM_FATAL(...)                                                   \
    ::charllm::detail::exitFatal(__FILE__, __LINE__,                         \
        ::charllm::detail::composeMessage(__VA_ARGS__))

/** Terminate due to a simulator bug (broken invariant). */
#define CHARLLM_PANIC(...)                                                   \
    ::charllm::detail::exitPanic(__FILE__, __LINE__,                         \
        ::charllm::detail::composeMessage(__VA_ARGS__))

/** Panic when a required condition does not hold. */
#define CHARLLM_ASSERT(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::charllm::detail::exitPanic(__FILE__, __LINE__,                 \
                ::charllm::detail::composeMessage(                           \
                    "assertion '" #cond "' failed: ", ##__VA_ARGS__));       \
        }                                                                    \
    } while (0)

/**
 * Always-on bounds/precondition check for accessors that take indices
 * from callers (tests, benches, tools). Unlike the C assert() idiom
 * this is NEVER compiled out: it stays active in Release/NDEBUG builds
 * so an out-of-range telemetry or link query aborts with context
 * instead of reading out of bounds. Use CHARLLM_ASSERT for internal
 * invariants; use this for argument validation on public accessors.
 */
#define CHARLLM_CHECK(cond, ...)                                             \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::charllm::detail::exitPanic(__FILE__, __LINE__,                 \
                ::charllm::detail::composeMessage(                           \
                    "check '" #cond "' failed: ", ##__VA_ARGS__));           \
        }                                                                    \
    } while (0)

/** Advisory warning; execution continues. */
#define CHARLLM_WARN(...)                                                    \
    std::fprintf(stderr, "warn: %s\n",                                       \
        ::charllm::detail::composeMessage(__VA_ARGS__).c_str())

#endif // CHARLLM_COMMON_LOGGING_HH
