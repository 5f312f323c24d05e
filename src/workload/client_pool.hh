/**
 * @file
 * Load generators: closed-loop client pool and open-loop arrivals.
 *
 * The paper's evaluation drives the service with N concurrent
 * clients, each sending its next request only after the previous one
 * completes (a closed loop — the x-axis of Figures 7 and 9). The
 * pool is decoupled from the serving engine through the RequestSink
 * interface so the workload layer has no dependency on the engine.
 */

#ifndef LIGHTLLM_WORKLOAD_CLIENT_POOL_HH
#define LIGHTLLM_WORKLOAD_CLIENT_POOL_HH

#include <cstddef>

#include "base/types.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace workload {

/** Anything that accepts timed request submissions (the engine). */
class RequestSink
{
  public:
    virtual ~RequestSink() = default;

    /** Enqueue `spec` to arrive at absolute tick `arrival`. */
    virtual void submitAt(const RequestSpec &spec, Tick arrival) = 0;
};

/**
 * N closed-loop clients replaying a dataset in order.
 *
 * Each client submits one request; when the engine reports that
 * request finished, the client waits `think_time` and submits the
 * next unsent dataset request. Every client sends its first
 * request at tick 0.
 */
class ClosedLoopClientPool
{
  public:
    ClosedLoopClientPool(std::size_t num_clients,
                         const Dataset &dataset, RequestSink &sink,
                         Tick think_time = 0);

    /** Submit the initial per-client requests at tick 0. */
    void start();

    /**
     * Notify the pool that a request finished; the owning client
     * submits the next dataset request (if any remain).
     */
    void onRequestFinished(RequestId id, Tick finish_tick);

    /** True when every dataset request has been submitted. */
    bool exhausted() const
    {
        return nextIndex_ >= dataset_.requests.size();
    }

  private:
    /** Submit the next dataset request at the given tick. */
    void submitNext(Tick when);

    std::size_t numClients_;
    const Dataset &dataset_;
    RequestSink &sink_;
    Tick thinkTime_;
    std::size_t nextIndex_ = 0;
};

} // namespace workload
} // namespace lightllm

#endif // LIGHTLLM_WORKLOAD_CLIENT_POOL_HH
