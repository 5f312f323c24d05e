#include "base/logging.hh"

#include <cstdlib>
#include <iostream>

namespace lightllm {
namespace detail {

void
panicImpl(const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

} // namespace detail
} // namespace lightllm
