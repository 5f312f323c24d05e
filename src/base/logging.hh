/**
 * @file
 * The library's two error conventions.
 *
 * Bad outside input — a flag value, a config, a dataset row, a
 * request the platform can never serve — throws
 * std::invalid_argument (an I/O failure throws std::runtime_error).
 * The library never exits: a program decides what an error ends
 * (`pfs_cli` prints `pfs_cli: <message>` and exits 1).
 *
 * A broken internal invariant (a library bug) calls panic(), which
 * aborts so a debugger or core dump can inspect the state;
 * LIGHTLLM_ASSERT panics unless its condition holds.
 */

#ifndef LIGHTLLM_BASE_LOGGING_HH
#define LIGHTLLM_BASE_LOGGING_HH

#include <sstream>
#include <string>

namespace lightllm {

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

namespace detail {

[[noreturn]] void panicImpl(const std::string &msg);

} // namespace detail

/** Abort with a message; use for violated internal invariants. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(concat(std::forward<Args>(args)...));
}

/** panic() unless the given condition holds. */
#define LIGHTLLM_ASSERT(cond, ...)                                       \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::lightllm::panic("assertion failed: ", #cond, " ",          \
                              ::lightllm::concat(__VA_ARGS__));          \
        }                                                                \
    } while (0)

} // namespace lightllm

#endif // LIGHTLLM_BASE_LOGGING_HH
