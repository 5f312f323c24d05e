/**
 * @file
 * Deterministic sharded (multi-threaded) co-simulation driver.
 *
 * A ShardedSimContext partitions a fleet co-simulation across K
 * shard threads while reproducing the single-threaded event order
 * *exactly* — a K-thread run is byte-identical to the 1-thread run
 * (DESIGN.md §9). The decomposition follows the event taxonomy:
 *
 *  - Every Delivery-class event (request arrivals, completion
 *    notifications, drains, warm-ups, autoscale control ticks,
 *    disagg transfers/dispatches) is cross-shard traffic: its
 *    handler may touch router/autoscaler/handoff state shared by
 *    all instances. All deliveries live in the *root* context's
 *    queue and fire sequentially on the coordinator thread, in the
 *    same (tick, class, FIFO) order the single queue would use.
 *  - Every Step-class event (one engine iteration) touches only
 *    its own engine's state, so steps of different engines commute.
 *    Each shard owns a member SimContext whose private queue holds
 *    its engines' Step events; shards execute windows of steps in
 *    parallel.
 *
 * Conservative time windows make the interleave safe: a Step
 * handler can only schedule deliveries at least `lookahead` ticks
 * after its own tick (each engine registers a spawn floor — the
 * scaled minimum of its perf model's phase latencies — and the hub
 * keeps the fleet-wide minimum). A window [T, W) with
 * W = min(T + lookahead, next pending delivery tick) therefore
 * contains only steps whose outputs land at or after W, i.e. after
 * every event in the window — no shard can affect another within
 * the window, and the coordinator never fires a delivery while a
 * window is open. An assert enforces the floor at every routed
 * delivery.
 *
 * Determinism across thread counts comes from stamping: each
 * handler execution is a *turn* (coordinator events take turns as
 * they fire; window steps take turns assigned by a K-way merge of
 * the shard queues in (tick, stamp) order), and every event carries
 * the (turn, op-index) stamp of the schedule call that created it.
 * Within one queue, FIFO order equals stamp order by construction,
 * so stamps only decide the order of *heads of different queues* —
 * exactly where the single global FIFO sequence must be
 * reconstructed. Deliveries spawned inside a window park in
 * per-shard mailboxes and are committed to the root queue at the
 * window barrier, sorted by (parent tick, parent stamp, op-index):
 * the order in which the single-threaded run would have made those
 * schedule calls.
 *
 * A step that throws (an engine meeting a request it can never
 * serve) ends its shard's run list; the other shards finish theirs,
 * and after the barrier the coordinator rethrows the exception of
 * the lowest turn, the first the single-threaded run meets, so a
 * failing run fails with the same message at every K.
 */

#ifndef LIGHTLLM_SIM_SHARDED_SIM_CONTEXT_HH
#define LIGHTLLM_SIM_SHARDED_SIM_CONTEXT_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/types.hh"
#include "sim/event_queue.hh"
#include "sim/sim_context.hh"

namespace lightllm {

namespace trace {
class ShardTrace;
class TraceRecorder;
}

namespace sim {

/** Coordinator + K shard contexts running one exact co-simulation. */
class ShardedSimContext
{
  public:
    /**
     * Enroll `root` as the coordinator context of a K-shard
     * simulation. `root` must be fresh (no pending events, clock at
     * zero); it keeps serving as the cluster-facing context — its
     * run entry points transparently drive the sharded loop.
     *
     * @param shards Number of shard threads (>= 1). Shard 0 runs on
     *        the coordinator thread; shards 1..K-1 get dedicated
     *        worker threads.
     */
    ShardedSimContext(SimContext &root, std::uint32_t shards);

    ShardedSimContext(const ShardedSimContext &) = delete;
    ShardedSimContext &operator=(const ShardedSimContext &) = delete;

    ~ShardedSimContext();

    /** The coordinator context (delivery queue + global clock). */
    SimContext &root() { return *root_; }

    /**
     * Pick the shard with the fewest live engines (ties keep the
     * lowest index — deterministic), count the newcomer against it,
     * and return its index. Placement is unobservable in reports:
     * it only chooses which thread executes the engine's steps.
     */
    std::uint32_t assignShard();

    /** The member context engines of shard `index` attach to. */
    SimContext &shardContext(std::uint32_t index);

    /** An engine of shard `index` drained/retired: stop counting it
     *  toward the shard's load for future placement. */
    void noteShardReleased(std::uint32_t index);

    /**
     * Register an engine's delivery spawn floor: the minimum number
     * of ticks between a Step event firing and any Delivery it
     * schedules. The hub's lookahead is the fleet-wide minimum
     * (monotone non-increasing; safe to shrink mid-run when an
     * autoscaler provisions a new engine).
     */
    void noteSpawnFloor(Tick floor);

    /**
     * Attach per-shard profiler sinks (one for the coordinator,
     * one per shard). Sinks only exist at --trace-detail full, so
     * this is a no-op otherwise; the wall-clock samples live in a
     * separate trace pseudo-process and never affect simulation
     * results. Call before the run starts.
     */
    void attachTrace(trace::TraceRecorder *recorder);

    /**
     * Fire the next unit of work: one coordinator delivery, or one
     * full parallel step window (all its mini-rounds plus the
     * mailbox commit).
     *
     * @return false when no events remain anywhere.
     */
    bool runOne();

    /** Drive the simulation dry. @return Events fired (deliveries +
     *  steps). */
    std::uint64_t runAll();

    /** True when the root and every shard queue are empty. */
    bool allEmpty() const;

    /** Coordinator-fired deliveries so far (stats/bench). */
    std::uint64_t deliveriesFired() const { return deliveries_; }

    /** Window-executed steps so far (stats/bench). */
    std::uint64_t stepsFired() const { return steps_; }

  private:
    friend class SimContext;

    /** One extracted step awaiting window execution. */
    struct WindowStep
    {
        Tick when;
        std::uint64_t stampTurn;
        std::uint64_t stampOp;
        std::uint64_t turn;
        EventHandler handler;
    };

    /** A delivery scheduled from inside an open window, awaiting
     *  its deterministic commit at the barrier. */
    struct MailboxEntry
    {
        Tick when;
        EventHandler handler;
        /** Firing position of the scheduling step... */
        Tick parentWhen;
        std::uint64_t parentTurn;
        std::uint64_t parentOp;
        /** ...and the schedule call's index within that handler. */
        std::uint64_t opIndex;
    };

    /** Per-thread execution cursor: the turn being executed and the
     *  running op-index its schedule calls stamp events with. */
    struct Cursor
    {
        std::uint64_t turn = 0;
        std::uint64_t op = 0;
    };

    /** Per-thread identity of the step being executed (stamps the
     *  mailbox entries it spawns). */
    struct Parent
    {
        Tick when = 0;
        std::uint64_t turn = 0;
        std::uint64_t op = 0;
    };

    /** Route a Delivery scheduled through shard `shard`'s context:
     *  direct root commit between windows, mailbox inside one. */
    EventId scheduleDeliveryFromShard(std::uint32_t shard, Tick when,
                                      EventHandler handler);

    /** Stamp out = (current turn, next op) of the calling thread. */
    static void stampNow(std::uint64_t &turn, std::uint64_t &op);

    Tick rootNow() const { return root_->now_; }

    /** Run the window starting at `start_tick`, bounded by the next
     *  pending delivery at `root_bound` (max() when none). */
    void runWindow(Tick start_tick, Tick root_bound);

    /** Extract in-window steps from every shard queue into the run
     *  lists and merge-assign their turns. @return Steps staged. */
    std::size_t stageWindow();

    /** Execute the staged run lists on the shard threads (barrier
     *  on return), then rethrow the lowest-turn step exception. */
    void executeStaged();

    /** Execute shard `index`'s staged run list (on its thread); a
     *  step that throws stops it and lands in stepErrors_[index]. */
    void runShard(std::uint32_t index);

    /** Commit all mailboxes to the root queue in deterministic
     *  (parent tick, parent stamp, op-index) order. */
    void commitMailboxes();

    void workerLoop(std::uint32_t shard);

    static thread_local Cursor tlCursor_;
    static thread_local Parent tlParent_;

    SimContext *root_;
    std::vector<std::unique_ptr<SimContext>> shards_;
    std::vector<std::uint32_t> liveEngines_;

    Tick lookahead_;
    bool inWindow_ = false;
    Tick windowEnd_ = 0;
    std::uint64_t turnCounter_ = 0;

    /** The exception a shard's step threw, and that step's turn. */
    struct StepError
    {
        std::uint64_t turn = 0;
        std::exception_ptr error;
    };

    std::vector<std::vector<WindowStep>> runLists_;
    std::vector<std::vector<MailboxEntry>> mailboxes_;
    /** One slot per shard; each shard thread writes only its own,
     *  before the barrier. */
    std::vector<StepError> stepErrors_;
    /** (shard, index-in-run-list) pairs, sorted for turn assignment
     *  / mailbox commit; reused across windows. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> order_;

    std::uint64_t deliveries_ = 0;
    std::uint64_t steps_ = 0;
    std::uint64_t windows_ = 0;

    // Profiler sinks (null / empty unless tracing at detail=full).
    // Each shard thread writes only its own sink; the coordinator
    // sink is coordinator-thread-only.
    trace::ShardTrace *coordTrace_ = nullptr;
    std::vector<trace::ShardTrace *> shardTraces_;

    // Window barrier: the coordinator publishes a generation under
    // mu_ and workers report completion under it too — two CVs, one
    // lock, no atomics to reason about (TSan-clean by construction).
    std::mutex mu_;
    std::condition_variable windowCv_;
    std::condition_variable doneCv_;
    std::uint64_t windowGen_ = 0;
    std::uint32_t remaining_ = 0;
    bool shutdown_ = false;
    std::vector<std::thread> workers_;
};

} // namespace sim
} // namespace lightllm

#endif // LIGHTLLM_SIM_SHARDED_SIM_CONTEXT_HH
