#include "cluster/serving_cluster.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "sim/sharded_sim_context.hh"
#include "trace/trace_recorder.hh"

namespace lightllm {
namespace cluster {

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin:
        return "round-robin";
      case RoutingPolicy::LeastOutstandingTokens:
        return "least-outstanding";
      case RoutingPolicy::FutureMemory:
        return "future-memory";
      case RoutingPolicy::PrefixAffinity:
        return "prefix-affinity";
      case RoutingPolicy::PrefillLoad:
        return "prefill-load";
    }
    return "unknown";
}

ServingCluster::ServingCluster(
    std::vector<std::unique_ptr<engine::ServingEngine>> instances,
    RoutingPolicy policy, sim::SimContext &context)
    : context_(&context), policy_(policy),
      routingPredictor_(core::kPaperWindowSize)
{
    LIGHTLLM_ASSERT(!instances.empty(),
                    "cluster needs at least one instance");
    for (auto &instance : instances)
        adoptInstance(std::move(instance));
    peakInstances_ = instances_.size();
}

void
ServingCluster::adoptInstance(
    std::unique_ptr<engine::ServingEngine> engine)
{
    const std::size_t index = instances_.size();
    // Under a sharded hub the engine's Step events run on a worker
    // shard; everything router-facing (this cluster's handlers) stays
    // on the coordinator's Delivery queue. Placement is least-loaded
    // by live engine count so provisioned replacements land on the
    // shard freed by the drained instance they replace.
    if (sim::ShardedSimContext *hub = context_->coordinatedHub()) {
        const std::uint32_t shard = hub->assignShard();
        engine->attachContext(hub->shardContext(shard));
        hub->noteSpawnFloor(engine->deliverySpawnFloor());
        shardOf_.push_back(shard);
    } else {
        engine->attachContext(*context_);
        shardOf_.push_back(0);
    }
    costRate_.push_back(
        engine->perfModel().hardwareSpec().dollarsPerSecond);
    engine->setOnFinish(
        [this, index](const workload::RequestSpec &spec,
                      Tick tick) {
            handleFinish(index, spec, tick);
        });
    engine->setOnRecord(
        [this](const metrics::RequestRecord &record) {
            if (autoscaler_)
                autoscaler_->onRecord(record);
        });
    if (traceRecorder_ != nullptr) {
        engine->attachTrace(traceRecorder_->createEngine(
            traceLabelPrefix_ + "-" + std::to_string(index)));
    }
    instances_.push_back(std::move(engine));
    draining_.push_back(false);
    warming_.push_back(false);
    routedTokens_.push_back(0);
    predictedLoad_.push_back(0);
    inFlight_.push_back(0);
    provisionedAt_.push_back(context_->now());
    retiredAt_.push_back(-1);
}

void
ServingCluster::setTraceRecorder(trace::TraceRecorder *recorder,
                                 std::string label_prefix)
{
    traceRecorder_ = recorder;
    traceLabelPrefix_ = std::move(label_prefix);
    if (traceRecorder_ == nullptr)
        return;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        instances_[i]->attachTrace(traceRecorder_->createEngine(
            traceLabelPrefix_ + "-" + std::to_string(i)));
    }
}

void
ServingCluster::enableAutoscale(
    const autoscale::AutoscaleConfig &config,
    std::unique_ptr<autoscale::ScalePolicy> policy,
    InstanceFactory factory)
{
    LIGHTLLM_ASSERT(!ran_, "enableAutoscale must precede run()");
    LIGHTLLM_ASSERT(offeredRequests_ == 0,
                    "enableAutoscale must precede submissions "
                    "(routing defers to arrival ticks only for "
                    "elastic fleets)");
    LIGHTLLM_ASSERT(factory != nullptr,
                    "autoscaling needs an instance factory");
    LIGHTLLM_ASSERT(instances_.size() >= config.minInstances &&
                        instances_.size() <= config.maxInstances,
                    "initial fleet of ", instances_.size(),
                    " outside [", config.minInstances, ", ",
                    config.maxInstances, "]");
    autoscaler_ = std::make_unique<autoscale::AutoScaler>(
        config, std::move(policy));
    factory_ = std::move(factory);
}

std::size_t
ServingCluster::provisionInstance(
    std::unique_ptr<engine::ServingEngine> engine, Tick warmup_delay)
{
    LIGHTLLM_ASSERT(warmup_delay >= 0, "negative warm-up delay");
    const std::size_t index = instances_.size();
    adoptInstance(std::move(engine));
    warming_[index] = true;
    ++scaleUpEvents_;

    std::size_t alive = 0;
    for (const Tick retired : retiredAt_)
        alive += retired < 0 ? 1 : 0;
    peakInstances_ = std::max(peakInstances_, alive);

    // Warm-up completion: the instance joins the router only after
    // the cold-start delay, even though its cost clock (and event
    // loop) started now.
    context_->schedule(context_->now() + warmup_delay,
                      [this, index](Tick) {
                          warming_[index] = false;
                      });
    return index;
}

std::size_t
ServingCluster::routableInstances() const
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < instances_.size(); ++i)
        count += routable(i) ? 1 : 0;
    return count;
}

std::size_t
ServingCluster::nonDrainingInstances() const
{
    std::size_t count = 0;
    for (const bool draining : draining_)
        count += draining ? 0 : 1;
    return count;
}

bool
ServingCluster::retireInstance(std::size_t keep_at_least)
{
    if (nonDrainingInstances() <= keep_at_least)
        return false;

    // Cheapest first: a warming instance never took traffic, so
    // retiring it is free. Otherwise drain the routable instance
    // with the least outstanding work — but never the last one
    // still accepting traffic.
    std::size_t victim = instances_.size();
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        if (warming_[i] && !draining_[i]) {
            victim = i;
            break;
        }
    }
    if (victim == instances_.size()) {
        if (routableInstances() <= 1)
            return false;
        TokenCount least = std::numeric_limits<TokenCount>::max();
        for (std::size_t i = 0; i < instances_.size(); ++i) {
            if (!routable(i))
                continue;
            const TokenCount load =
                instances_[i]->outstandingTokens();
            if (load < least) {
                least = load;
                victim = i;
            }
        }
    }
    LIGHTLLM_ASSERT(victim < instances_.size(),
                    "no retirable instance");
    ++scaleDownEvents_;
    drainNow(victim);
    return true;
}

autoscale::FleetSnapshot
ServingCluster::snapshot()
{
    autoscale::FleetSnapshot snap;
    snap.now = context_->now();
    snap.instances.reserve(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        autoscale::InstanceSnapshot instance;
        instance.warming = warming_[i] && !draining_[i];
        instance.draining = draining_[i];
        instance.capacityTokens =
            instances_[i]->capacityTokens();
        instance.outstandingTokens =
            instances_[i]->outstandingTokens();
        // estimateLoad may draw sticky samples: keep this call
        // order, it fixes the report bytes.
        instance.predictedLoadTokens =
            instances_[i]->predictedLoadTokens();
        snap.instances.push_back(instance);
    }
    return snap;
}

void
ServingCluster::controlOnce()
{
    LIGHTLLM_ASSERT(autoscaler_ != nullptr,
                    "controlOnce requires autoscaling");
    const autoscale::FleetSnapshot snap = snapshot();
    const int delta = autoscaler_->evaluate(snap);
    if (delta > 0) {
        const std::size_t max_size =
            autoscaler_->config().maxInstances;
        for (int i = 0; i < delta; ++i) {
            if (nonDrainingInstances() >= max_size)
                break;
            provisionInstance(factory_(),
                              autoscaler_->config().provisionDelay);
        }
    } else if (delta < 0) {
        retireInstance(autoscaler_->config().minInstances);
    }
}

void
ServingCluster::controlTick(Tick when)
{
    controlOnce();

    // Keep ticking while anything can still happen. The fleet is
    // quiescent once every offered request finished (or was shed)
    // and no instance holds work or pending arrivals — after that,
    // only bookkeeping events (e.g. a far-future warm-up) could
    // remain, and no further control decision can matter.
    std::size_t finished = 0;
    bool busy = false;
    for (const auto &instance : instances_) {
        finished += instance->numFinished();
        busy = busy || instance->hasWork() ||
               instance->hasPendingArrivals();
    }
    const bool quiescent = !busy &&
        shedRequests_ + static_cast<std::int64_t>(finished) ==
            offeredRequests_;
    if (!context_->empty() && !quiescent) {
        context_->schedule(when + autoscale::kControlInterval,
                           [this](Tick tick) { controlTick(tick); });
    }
}

void
ServingCluster::setOnFinish(FinishCallback callback)
{
    onFinish_ = std::move(callback);
}

void
ServingCluster::warmRoutingHistory(
    std::span<const TokenCount> lengths)
{
    for (TokenCount length : lengths)
        routingPredictor_.observe(length);
}

void
ServingCluster::handleFinish(std::size_t instance,
                             const workload::RequestSpec &spec,
                             Tick tick)
{
    routingPredictor_.observe(spec.effectiveOutputLen());
    releaseCharge(spec.id);
    LIGHTLLM_ASSERT(inFlight_[instance] > 0,
                    "finish without a routed request on instance ",
                    instance);
    --inFlight_[instance];
    lastFinishTick_ = std::max(lastFinishTick_, tick);
    if (draining_[instance] && inFlight_[instance] == 0 &&
        retiredAt_[instance] < 0) {
        // The drained instance just went idle: its cost clock
        // stops here.
        retiredAt_[instance] = tick;
    }
    if (onFinish_)
        onFinish_(spec, tick);
}

void
ServingCluster::releaseCharge(RequestId id)
{
    if (const Charge *charge = charges_.find(id)) {
        predictedLoad_[charge->instance] -= charge->footprint;
        charges_.erase(id);
    }
}

TokenCount
ServingCluster::predictFootprint(const workload::RequestSpec &spec)
{
    // A point estimate is the right prediction for load balancing
    // (unlike admission, placement needs no completion stagger).
    return routingPredictor_.predictFootprint(spec.inputLen,
                                              spec.maxNewTokens);
}

void
ServingCluster::recordSubmissions(std::vector<RoutedSubmission> *log)
{
    LIGHTLLM_ASSERT(offeredRequests_ == 0,
                    "recordSubmissions must precede submissions");
    submissionLog_ = log;
}

std::size_t
ServingCluster::leastLoaded(
    const std::function<double(std::size_t)> &load_of) const
{
    // Normalise by instance capacity so heterogeneous fleets
    // compare fairly; ties keep the lowest index.
    std::size_t best = instances_.size();
    double best_load = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        if (!routable(i))
            continue;
        const double load = load_of(i) /
            static_cast<double>(instances_[i]->capacityTokens());
        if (load < best_load) {
            best_load = load;
            best = i;
        }
    }
    LIGHTLLM_ASSERT(best < instances_.size(),
                    "no routable instance (all draining?)");
    return best;
}

std::size_t
ServingCluster::pickInstance(TokenCount footprint,
                             std::uint64_t session_key)
{
    switch (policy_) {
      case RoutingPolicy::RoundRobin:
      {
        for (std::size_t probe = 0; probe < instances_.size();
             ++probe) {
            const std::size_t index = nextRoundRobin_;
            nextRoundRobin_ =
                (nextRoundRobin_ + 1) % instances_.size();
            if (routable(index))
                return index;
        }
        panic("no routable instance (all draining?)");
      }
      case RoutingPolicy::LeastOutstandingTokens:
        // Current resident + queued footprint: what a router can
        // observe without the scheduler's help.
        return leastLoaded([this](std::size_t i) {
            return static_cast<double>(
                instances_[i]->outstandingTokens());
        });
      case RoutingPolicy::FutureMemory:
        // Router-side Past-Future estimate: predicted in-flight
        // load (including this request) over capacity.
        return leastLoaded([this, footprint](std::size_t i) {
            return static_cast<double>(predictedLoad_[i] +
                                       footprint);
        });
      case RoutingPolicy::PrefixAffinity:
      {
        // Keep a session's turns where its prefix is cached; place
        // unknown sessions (and key-less traffic) least-loaded.
        if (session_key != 0) {
            const auto it = sessionHome_.find(session_key);
            if (it != sessionHome_.end() &&
                routable(it->second)) {
                return it->second;
            }
        }
        const std::size_t index =
            leastLoaded([this](std::size_t i) {
                return static_cast<double>(
                    instances_[i]->outstandingTokens());
            });
        if (session_key != 0)
            sessionHome_[session_key] = index;
        return index;
      }
      case RoutingPolicy::PrefillLoad:
        // Prefill-pool placement: queueing delay there is set by
        // the prompt tokens still to prefill, not by resident
        // memory (prefill-side requests release KV quickly).
        return leastLoaded([this](std::size_t i) {
            return static_cast<double>(
                instances_[i]->pendingPrefillTokens());
        });
    }
    panic("unknown routing policy");
}

void
ServingCluster::submitAt(const workload::RequestSpec &spec,
                         Tick arrival)
{
    const Tick when = std::max(arrival, context_->now());
    ++offeredRequests_;
    if (!autoscaler_) {
        // A static fleet routes at submission time (pinned by
        // ClusterTest.StaticFleetsRouteAtSubmissionElasticAtArrival).
        routeSubmission(spec, when, when);
        return;
    }
    // Elastic fleet: defer routing to the arrival tick so the
    // decision sees the fleet as it exists *then* — including
    // instances provisioned meanwhile — and so the shed-or-queue
    // check judges the actual load at arrival, not at submission
    // (open-loop workloads pre-schedule everything up front).
    context_->schedule(when, [this, spec](Tick tick) {
        // Snapshot + footprint are per-arrival costs; pay them
        // only when a shed policy can actually use them. A shed
        // request gets no completion callback — shedding models an
        // open-loop client receiving a rejection (closed-loop
        // generators would stall waiting on it; the CLI forbids
        // that combination).
        if (autoscaler_->config().shedPolicy !=
                autoscale::ShedPolicy::Never) {
            const TokenCount footprint = predictFootprint(spec);
            if (autoscaler_->shouldShed(snapshot(), footprint,
                                        spec.cls)) {
                ++shedRequests_;
                return;
            }
            // Routed work feeds the recent-usage signal behind
            // fairness-aware shedding.
            autoscaler_->noteRouted(spec.cls, footprint, tick);
        }
        routeSubmission(spec, tick, tick);
    });
}

void
ServingCluster::routeSubmission(const workload::RequestSpec &spec,
                                Tick deliver, Tick stamp)
{
    // One footprint estimate per submission: the placement decision
    // and the charge must agree by construction.
    const TokenCount footprint =
        policy_ == RoutingPolicy::FutureMemory
        ? predictFootprint(spec)
        : 0;
    const std::size_t index =
        pickInstance(footprint, spec.sessionKey);
    routedTokens_[index] += spec.effectiveOutputLen();
    ++inFlight_[index];
    if (policy_ == RoutingPolicy::FutureMemory) {
        predictedLoad_[index] += footprint;
        charges_.insertOrAssign(spec.id, Charge{index, footprint});
    }
    if (submissionLog_ != nullptr) {
        // Mirror the engine's arrival clamp so the log records the
        // tick the arrival event actually fires.
        submissionLog_->push_back(RoutedSubmission{
            index, spec, std::max(deliver, context_->now()), stamp,
            footprint});
    }
    instances_[index]->submitStamped(spec, deliver, stamp);
}

void
ServingCluster::scheduleDrain(std::size_t index, Tick when)
{
    LIGHTLLM_ASSERT(index < instances_.size(), "bad instance index");
    LIGHTLLM_ASSERT(!ran_, "scheduleDrain must precede run()");
    context_->schedule(when,
                      [this, index](Tick) { drainNow(index); });
}

void
ServingCluster::drainNow(std::size_t index)
{
    LIGHTLLM_ASSERT(!draining_[index], "instance ", index,
                    " drained twice");
    // The surviving fleet must be non-empty; when instance `index`
    // is the only one left undrained, draining it would retire the
    // whole fleet.
    std::size_t undrained_others = 0;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        if (i != index && !draining_[i])
            ++undrained_others;
    }
    LIGHTLLM_ASSERT(undrained_others > 0, "cannot drain instance ",
                    index,
                    ": it is the last undrained instance of the "
                    "fleet");
    draining_[index] = true;
    if (sim::ShardedSimContext *hub = context_->coordinatedHub())
        hub->noteShardReleased(shardOf_[index]);

    // Requests the instance never admitted go back through the
    // router with their original arrival stamps (latency metrics
    // keep counting from the first submission). Their FutureMemory
    // charges move with them: drop the drained instance's charge
    // first so re-routing re-charges the new target.
    for (const auto &drained : instances_[index]->drainQueued()) {
        releaseCharge(drained.spec.id);
        // The drained instance never serves this work: take its
        // tokens back so tokenImbalance() reflects served load.
        routedTokens_[index] -= drained.spec.effectiveOutputLen();
        LIGHTLLM_ASSERT(inFlight_[index] > 0,
                        "drained request without an in-flight "
                        "entry");
        --inFlight_[index];
        routeSubmission(drained.spec, drained.redispatchAt,
                        drained.arrivalStamp);
    }
    if (inFlight_[index] == 0 && retiredAt_[index] < 0) {
        // Nothing left running: the instance is idle from here on.
        retiredAt_[index] = context_->now();
    }
}

metrics::RunReport
ServingCluster::run()
{
    LIGHTLLM_ASSERT(!ran_, "cluster instances are single-run");
    ran_ = true;

    // Start the autoscale control loop one interval in.
    if (autoscaler_) {
        context_->schedule(autoscale::kControlInterval,
                           [this](Tick tick) { controlTick(tick); });
    }

    // Exact co-simulation: every arrival, iteration boundary,
    // completion, and drain fires in global (tick, class, FIFO)
    // order on the shared context. Engines schedule their own next
    // iterations, so running the queue dry runs the fleet dry.
    context_->runToCompletion();
    return finalizeReport();
}

metrics::RunReport
ServingCluster::finalizeReport(Tick end_of_service)
{
    if (end_of_service < 0)
        end_of_service = lastFinishTick_;
    // Every routed request finished, and its FutureMemory charge
    // with it.
    LIGHTLLM_ASSERT(
        std::all_of(predictedLoad_.begin(), predictedLoad_.end(),
                    [](TokenCount load) { return load == 0; }),
        "router charges outlived their requests");

    // Merge per-instance reports, one live copy at a time.
    metrics::ReportMerger merger(
        "Cluster(" + std::string(routingPolicyName(policy_)) + " x" +
        std::to_string(instances_.size()) + ")");
    for (const auto &instance : instances_)
        merger.add(instance->report());
    metrics::RunReport merged = merger.finish();

    // Instance-seconds: each instance costs from its provision tick
    // until it went idle after draining, or the end of service.
    // The end-of-service tick is tracked absolutely (the last
    // completion anywhere) because per-instance makespans are
    // measurement-relative under --warmup.
    instanceSecondsTotal_ = 0.0;
    instanceCostTotal_ = 0.0;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        const Tick end = retiredAt_[i] >= 0 ? retiredAt_[i]
                                            : end_of_service;
        const double alive = ticksToSeconds(
            std::max<Tick>(0, end - provisionedAt_[i]));
        instanceSecondsTotal_ += alive;
        instanceCostTotal_ += alive * costRate_[i];
    }

    merged.shedRequests = shedRequests_;
    merged.offeredRequests = offeredRequests_;
    merged.instanceSeconds = instanceSecondsTotal_;
    merged.instanceCost = instanceCostTotal_;
    merged.scaleUpEvents = scaleUpEvents_;
    merged.scaleDownEvents = scaleDownEvents_;
    merged.peakInstances = peakInstances_;
    return merged;
}

double
ServingCluster::tokenImbalance() const
{
    TokenCount max_tokens = 0;
    TokenCount total = 0;
    for (TokenCount tokens : routedTokens_) {
        max_tokens = std::max(max_tokens, tokens);
        total += tokens;
    }
    if (total == 0)
        return 0.0;
    const double mean = static_cast<double>(total) /
        static_cast<double>(routedTokens_.size());
    return static_cast<double>(max_tokens) / mean - 1.0;
}

} // namespace cluster
} // namespace lightllm
