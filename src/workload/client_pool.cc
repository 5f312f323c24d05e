#include "workload/client_pool.hh"

#include "base/logging.hh"

namespace lightllm {
namespace workload {

ClosedLoopClientPool::ClosedLoopClientPool(std::size_t num_clients,
                                           const Dataset &dataset,
                                           RequestSink &sink,
                                           Tick think_time)
    : numClients_(num_clients), dataset_(dataset), sink_(sink),
      thinkTime_(think_time)
{
    LIGHTLLM_ASSERT(num_clients > 0, "need at least one client");
    LIGHTLLM_ASSERT(think_time >= 0, "negative think time");
}

void
ClosedLoopClientPool::start()
{
    const std::size_t initial =
        std::min(numClients_, dataset_.requests.size());
    for (std::size_t c = 0; c < initial; ++c)
        submitNext(0);
}

void
ClosedLoopClientPool::onRequestFinished(RequestId, Tick finish_tick)
{
    // Closed loop: a completion frees exactly one client slot.
    if (!exhausted())
        submitNext(finish_tick + thinkTime_);
}

void
ClosedLoopClientPool::submitNext(Tick when)
{
    LIGHTLLM_ASSERT(!exhausted(), "no dataset requests left");
    sink_.submitAt(dataset_.requests[nextIndex_], when);
    ++nextIndex_;
}

} // namespace workload
} // namespace lightllm
