#include "sim/sharded_sim_context.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "base/logging.hh"
#include "trace/trace_recorder.hh"

namespace lightllm {
namespace sim {

thread_local ShardedSimContext::Cursor ShardedSimContext::tlCursor_;
thread_local ShardedSimContext::Parent ShardedSimContext::tlParent_;

ShardedSimContext::ShardedSimContext(SimContext &root,
                                     std::uint32_t shards)
    : root_(&root),
      lookahead_(std::numeric_limits<Tick>::max())
{
    LIGHTLLM_ASSERT(shards >= 1, "need at least one shard");
    LIGHTLLM_ASSERT(root.hub_ == nullptr,
                    "context already enrolled in a hub");
    LIGHTLLM_ASSERT(root.queue_.empty() && root.now_ == 0,
                    "sharded root context must be fresh");
    root_->hub_ = this;
    root_->shard_ = -1;

    shards_.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
        auto shard = std::make_unique<SimContext>();
        shard->hub_ = this;
        shard->shard_ = static_cast<std::int32_t>(i);
        shards_.push_back(std::move(shard));
    }
    liveEngines_.assign(shards, 0);
    runLists_.resize(shards);
    mailboxes_.resize(shards);
    stepErrors_.resize(shards);

    // The construction/setup phase is turn 0: submissions made
    // before the first event fires stamp as ops of one pre-run
    // handler, matching the single-threaded FIFO sequence.
    tlCursor_ = Cursor{0, 0};

    workers_.reserve(shards > 0 ? shards - 1 : 0);
    for (std::uint32_t i = 1; i < shards; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ShardedSimContext::~ShardedSimContext()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    windowCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    root_->hub_ = nullptr;
    root_->shard_ = -1;
}

std::uint32_t
ShardedSimContext::assignShard()
{
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < liveEngines_.size(); ++i) {
        if (liveEngines_[i] < liveEngines_[best])
            best = i;
    }
    ++liveEngines_[best];
    return best;
}

SimContext &
ShardedSimContext::shardContext(std::uint32_t index)
{
    LIGHTLLM_ASSERT(index < shards_.size(), "bad shard index ",
                    index);
    return *shards_[index];
}

void
ShardedSimContext::noteShardReleased(std::uint32_t index)
{
    LIGHTLLM_ASSERT(index < liveEngines_.size(), "bad shard index ",
                    index);
    LIGHTLLM_ASSERT(liveEngines_[index] > 0,
                    "released an engine from an empty shard");
    --liveEngines_[index];
}

void
ShardedSimContext::attachTrace(trace::TraceRecorder *recorder)
{
    if (recorder == nullptr)
        return;
    // Coordinator first, then shards in index order: tids are
    // assigned in creation order, so the trace layout is stable
    // for a given --sim-threads value. Publish the sink vector
    // under the barrier mutex — workers pick their sink up under
    // the same lock at the next window wake.
    trace::ShardTrace *coord = recorder->createShard("coordinator");
    std::vector<trace::ShardTrace *> sinks(shards_.size(), nullptr);
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        sinks[i] =
            recorder->createShard("shard-" + std::to_string(i));
    }
    std::lock_guard<std::mutex> lock(mu_);
    coordTrace_ = coord;
    shardTraces_ = std::move(sinks);
}

void
ShardedSimContext::noteSpawnFloor(Tick floor)
{
    LIGHTLLM_ASSERT(floor >= 1, "delivery spawn floor must be >= 1");
    lookahead_ = std::min(lookahead_, floor);
}

EventId
ShardedSimContext::scheduleDeliveryFromShard(std::uint32_t shard,
                                             Tick when,
                                             EventHandler handler)
{
    if (!inWindow_) {
        // Coordinator phase (setup, or inside a delivery handler):
        // commit straight to the root queue — calls are already in
        // global order. Tag the handle so the member context routes
        // cancel/reschedule/eventTick back here.
        LIGHTLLM_ASSERT(when >= root_->now_,
                        "cannot schedule a delivery at tick ", when,
                        " in the past of the shared clock ",
                        root_->now_);
        const EventId id = root_->queue_.schedule(
            when, std::move(handler), EventClass::Delivery);
        LIGHTLLM_ASSERT((id & SimContext::kRoutedDeliveryBit) == 0,
                        "root queue handle overflowed the routed-"
                        "delivery tag bit");
        return id | SimContext::kRoutedDeliveryBit;
    }

    // Window phase: the conservative-lookahead contract is exactly
    // that no step output lands inside the open window.
    LIGHTLLM_ASSERT(when >= windowEnd_, "shard ", shard,
                    " spawned a delivery at ", when,
                    " inside the open window ending at ", windowEnd_,
                    " (engine spawn floor narrower than declared)");
    MailboxEntry entry;
    entry.when = when;
    entry.handler = std::move(handler);
    entry.parentWhen = tlParent_.when;
    entry.parentTurn = tlParent_.turn;
    entry.parentOp = tlParent_.op;
    entry.opIndex = tlCursor_.op++;
    mailboxes_[shard].push_back(std::move(entry));
    // Window-spawned deliveries are fire-and-forget (completion
    // notifications); no claimable handle exists until the barrier
    // commit, and none is needed.
    return kInvalidEventId;
}

void
ShardedSimContext::stampNow(std::uint64_t &turn, std::uint64_t &op)
{
    turn = tlCursor_.turn;
    op = tlCursor_.op++;
}

bool
ShardedSimContext::runOne()
{
    const bool have_root = !root_->queue_.empty();
    const Tick root_tick =
        have_root ? root_->queue_.nextTick() : Tick{0};

    // Earliest step head across the shard queues, in the exact
    // (tick, stamp) order the single global FIFO would use.
    std::uint32_t best_shard = shards_.size();
    Tick best_tick = 0;
    std::uint64_t best_turn = 0;
    std::uint64_t best_op = 0;
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        SimContext &shard = *shards_[i];
        if (shard.queue_.empty())
            continue;
        const EventQueue::HeadView head = shard.queue_.peekHead();
        LIGHTLLM_ASSERT(head.cls == EventClass::Step,
                        "shard queue holds a non-Step event");
        const std::uint64_t turn = shard.stampTurn_[head.slot];
        const std::uint64_t op = shard.stampOp_[head.slot];
        if (best_shard == shards_.size() ||
            std::tie(head.when, turn, op) <
                std::tie(best_tick, best_turn, best_op)) {
            best_shard = i;
            best_tick = head.when;
            best_turn = turn;
            best_op = op;
        }
    }

    if (!have_root && best_shard == shards_.size())
        return false;

    if (have_root &&
        (best_shard == shards_.size() || root_tick <= best_tick)) {
        // Deliveries outrank steps at the same tick, exactly as the
        // EventClass band orders them in one queue.
        tlCursor_ = Cursor{++turnCounter_, 0};
        root_->runNextLocal();
        ++deliveries_;
        return true;
    }

    runWindow(best_tick,
              have_root ? root_tick
                        : std::numeric_limits<Tick>::max());
    return true;
}

std::uint64_t
ShardedSimContext::runAll()
{
    const std::uint64_t before = deliveries_ + steps_;
    while (runOne()) {
    }
    return deliveries_ + steps_ - before;
}

bool
ShardedSimContext::allEmpty() const
{
    if (!root_->queue_.empty())
        return false;
    for (const auto &shard : shards_) {
        if (!shard->queue_.empty())
            return false;
    }
    return true;
}

void
ShardedSimContext::runWindow(Tick start_tick, Tick root_bound)
{
    // Conservative window: no step in [start, end) can schedule a
    // delivery before `end`, and no pending delivery fires before
    // `end` either — so every step in the window is independent of
    // everything else in it (steps of different engines commute).
    const Tick max_tick = std::numeric_limits<Tick>::max();
    Tick end = lookahead_ > max_tick - start_tick
        ? max_tick
        : start_tick + lookahead_;
    end = std::min(end, root_bound);
    LIGHTLLM_ASSERT(end > start_tick, "degenerate window");
    windowEnd_ = end;
    ++windows_;

    // Mini-rounds: an engine step may reschedule itself inside the
    // window (e.g. a same-tick wake after an empty fused iteration);
    // such steps are extracted and executed in follow-up rounds
    // until the window runs dry. Mailboxes accumulate across rounds
    // and commit once, so delivery order is independent of which
    // round a parent ran in.
    std::uint64_t staged_total = 0;
    for (;;) {
        const std::size_t staged = stageWindow();
        if (staged == 0)
            break;
        executeStaged();
        steps_ += staged;
        staged_total += staged;
    }
    if (coordTrace_ != nullptr) {
        coordTrace_->sample(
            trace::TraceName::ShardWindow, start_tick, windowEnd_,
            static_cast<std::int64_t>(staged_total),
            static_cast<std::int64_t>(windows_));
    }
    commitMailboxes();
}

std::size_t
ShardedSimContext::stageWindow()
{
    order_.clear();
    std::size_t total = 0;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        SimContext &shard = *shards_[s];
        std::vector<WindowStep> &list = runLists_[s];
        list.clear();
        while (!shard.queue_.empty()) {
            const EventQueue::HeadView head =
                shard.queue_.peekHead();
            if (head.when >= windowEnd_)
                break;
            LIGHTLLM_ASSERT(head.cls == EventClass::Step,
                            "shard queue holds a non-Step event");
            WindowStep step;
            step.when = head.when;
            step.stampTurn = shard.stampTurn_[head.slot];
            step.stampOp = shard.stampOp_[head.slot];
            step.handler = shard.queue_.extractNext();
            list.push_back(std::move(step));
        }
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(list.size()); ++i)
            order_.emplace_back(s, i);
        total += list.size();
    }
    if (total == 0)
        return 0;

    // K-way merge: assign turns in the exact order the single
    // global queue would have fired these steps. Stamps are unique,
    // so the sort needs no tie-breaker.
    std::sort(order_.begin(), order_.end(),
              [this](const auto &a, const auto &b) {
                  const WindowStep &sa = runLists_[a.first][a.second];
                  const WindowStep &sb = runLists_[b.first][b.second];
                  return std::tie(sa.when, sa.stampTurn, sa.stampOp) <
                      std::tie(sb.when, sb.stampTurn, sb.stampOp);
              });
    for (const auto &[shard, index] : order_)
        runLists_[shard][index].turn = ++turnCounter_;
    return total;
}

void
ShardedSimContext::executeStaged()
{
    const std::uint32_t helpers =
        static_cast<std::uint32_t>(workers_.size());
    inWindow_ = true;
    if (helpers > 0) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++windowGen_;
            remaining_ = helpers;
        }
        windowCv_.notify_all();
    }
    runShard(0);
    if (helpers > 0) {
        std::unique_lock<std::mutex> lock(mu_);
        doneCv_.wait(lock, [this] { return remaining_ == 0; });
    }
    inWindow_ = false;

    // Every shard has reached the barrier, so no step still runs.
    // Of this round's throws, the lowest turn is the one-thread
    // run's first (a step a later round would re-stage never runs).
    StepError first;
    for (StepError &slot : stepErrors_) {
        if (slot.error && (!first.error || slot.turn < first.turn))
            first = slot;
        slot = StepError{};
    }
    if (first.error)
        std::rethrow_exception(first.error);
}

void
ShardedSimContext::runShard(std::uint32_t index)
{
    SimContext &shard = *shards_[index];
    trace::ShardTrace *sink = index < shardTraces_.size()
        ? shardTraces_[index]
        : nullptr;
    std::chrono::steady_clock::time_point start;
    if (sink != nullptr && !runLists_[index].empty())
        start = std::chrono::steady_clock::now();
    for (WindowStep &step : runLists_[index]) {
        // Each step runs at its own tick with its own turn; the
        // shard clock replays exactly the per-event advance the
        // single-threaded loop performs.
        shard.now_ = step.when;
        tlCursor_ = Cursor{step.turn, 0};
        tlParent_ = Parent{step.when, step.stampTurn, step.stampOp};
        try {
            step.handler(step.when);
        } catch (...) {
            stepErrors_[index] =
                StepError{step.turn, std::current_exception()};
            break;
        }
    }
    if (sink != nullptr && !runLists_[index].empty()) {
        const auto compute_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        sink->sample(
            trace::TraceName::ShardCompute, windowEnd_,
            static_cast<std::int64_t>(runLists_[index].size()),
            compute_ns, static_cast<std::int64_t>(windows_));
    }
}

void
ShardedSimContext::workerLoop(std::uint32_t shard)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        const auto wait_start = std::chrono::steady_clock::now();
        windowCv_.wait(lock, [this, seen] {
            return shutdown_ || windowGen_ > seen;
        });
        if (shutdown_)
            return;
        seen = windowGen_;
        trace::ShardTrace *sink = shard < shardTraces_.size()
            ? shardTraces_[shard]
            : nullptr;
        if (sink != nullptr) {
            // Wall-clock time parked at the barrier since the last
            // window finished: idle + wake latency, the cost the
            // parallel fleet pays for the deterministic merge.
            const auto wait_ns = std::chrono::duration_cast<
                std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wait_start)
                .count();
            sink->sample(trace::TraceName::ShardBarrier, windowEnd_,
                         wait_ns,
                         static_cast<std::int64_t>(windows_));
        }
        lock.unlock();
        runShard(shard);
        lock.lock();
        if (--remaining_ == 0)
            doneCv_.notify_one();
    }
}

void
ShardedSimContext::commitMailboxes()
{
    order_.clear();
    for (std::uint32_t s = 0; s < mailboxes_.size(); ++s) {
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(mailboxes_[s].size());
             ++i)
            order_.emplace_back(s, i);
    }
    if (order_.empty())
        return;

    // Commit in the order the single-threaded run would have made
    // these schedule calls: parent firing position (tick, stamp),
    // then call index within the parent's handler. The root queue's
    // own FIFO sequencing then reproduces the global delivery order
    // byte-for-byte.
    std::sort(order_.begin(), order_.end(),
              [this](const auto &a, const auto &b) {
                  const MailboxEntry &ma =
                      mailboxes_[a.first][a.second];
                  const MailboxEntry &mb =
                      mailboxes_[b.first][b.second];
                  return std::tie(ma.parentWhen, ma.parentTurn,
                                  ma.parentOp, ma.opIndex) <
                      std::tie(mb.parentWhen, mb.parentTurn,
                               mb.parentOp, mb.opIndex);
              });
    for (const auto &[shard, index] : order_) {
        MailboxEntry &entry = mailboxes_[shard][index];
        root_->queue_.schedule(entry.when,
                               std::move(entry.handler),
                               EventClass::Delivery);
    }
    if (coordTrace_ != nullptr) {
        coordTrace_->sample(trace::TraceName::MailboxCommit,
                            windowEnd_,
                            static_cast<std::int64_t>(order_.size()),
                            static_cast<std::int64_t>(windows_));
    }
    for (auto &mailbox : mailboxes_)
        mailbox.clear();
}

} // namespace sim
} // namespace lightllm
