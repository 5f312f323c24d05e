#include "cli_scenario.hh"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/str_util.hh"
#include "base/table.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "sim/sharded_sim_context.hh"
#include "sim/sim_context.hh"
#include "trace/trace_recorder.hh"
#include "workload/arrivals.hh"
#include "workload/client_pool.hh"
#include "workload/tenant_mix.hh"
#include "workload/trace_gen.hh"
#include "workload/trace_io.hh"

namespace lightllm {
namespace cli {

namespace {

/** Parse helpers that reject trailing junk ("64x" is not a number)
 *  and signs ("-1" would silently wrap through std::stoull). */
bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || !std::isdigit(
                            static_cast<unsigned char>(text[0])))
        return false;
    try {
        std::size_t used = 0;
        out = std::stoull(text, &used);
        return used == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

bool
parseDouble(const std::string &text, double &out)
{
    try {
        std::size_t used = 0;
        out = std::stod(text, &used);
        return used == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

using workload::traceToDataset;

workload::Dataset
makeWorkload(const std::string &name, std::size_t n,
             std::uint64_t seed, TokenCount image_tokens)
{
    if (name == "sharegpt")
        return workload::makeShareGpt(n, seed);
    if (name == "sharegpt-o1")
        return workload::makeShareGptO1(n, seed);
    if (name == "dist1")
        return workload::makeDistribution1(n, seed);
    if (name == "dist2")
        return workload::makeDistribution2(n, seed);
    if (name == "dist3")
        return workload::makeDistribution3(n, seed);
    if (name == "textvqa")
        return workload::makeTextVqaLike(n, image_tokens, seed);
    if (name == "trace-conversation")
        return traceToDataset(workload::makeConversationTrace(n, seed),
                              2048);
    if (name == "trace-api")
        return traceToDataset(workload::makeApiTrace(n, seed), 2048);
    if (name == "trace-code")
        return traceToDataset(
            workload::makeCodeCompletionTrace(n, seed), 512);
    if (name == "trace-longdoc")
        return traceToDataset(workload::makeLongDocTrace(n, seed),
                              2048);
    throw std::invalid_argument("unknown workload: " + name);
}

core::SchedulerConfig
makeSchedulerConfig(const CliOptions &options)
{
    core::SchedulerConfig config;
    if (options.scheduler == "past_future") {
        config = core::SchedulerConfig::pastFutureDefault(
            options.reservedRatio);
        config.pastFuture.windowSize = options.windowSize;
    } else if (options.scheduler == "aggressive") {
        config = core::SchedulerConfig::aggressive(options.watermark);
    } else if (options.scheduler == "conservative") {
        config = core::SchedulerConfig::conservative(
            options.overcommit);
    } else if (options.scheduler == "oracle") {
        config = core::SchedulerConfig::oracle();
    } else {
        throw std::invalid_argument("unknown scheduler: " +
                                    options.scheduler);
    }
    return config;
}

model::ModelSpec
makeModelSpec(const std::string &name)
{
    if (name == "llama2-7b")
        return model::ModelSpec::llama2_7b();
    if (name == "llama2-13b")
        return model::ModelSpec::llama2_13b();
    if (name == "llama2-70b")
        return model::ModelSpec::llama2_70b();
    if (name == "qwen-vl-chat")
        return model::ModelSpec::qwenVlChat();
    if (name == "llava15-7b")
        return model::ModelSpec::llava15_7b();
    if (name == "llava15-13b")
        return model::ModelSpec::llava15_13b();
    throw std::invalid_argument("unknown model: " + name);
}

model::HardwareSpec
makeHardwareSpec(const std::string &name, int tensor_parallel)
{
    model::HardwareSpec spec = [&] {
        if (name == "a100-80g")
            return model::HardwareSpec::a100_80g();
        if (name == "h800")
            return model::HardwareSpec::h800();
        if (name == "rtx4090")
            return model::HardwareSpec::rtx4090();
        if (name == "a30")
            return model::HardwareSpec::a30();
        throw std::invalid_argument("unknown hardware: " + name);
    }();
    if (tensor_parallel > 1)
        spec = spec.withTensorParallel(tensor_parallel);
    return spec;
}

metrics::SlaSpec
makeSla(const CliOptions &options)
{
    metrics::SlaSpec sla = options.model == "llama2-70b"
        ? metrics::SlaSpec::large70b()
        : metrics::SlaSpec::small7b13b();
    if (options.ttftLimitSeconds > 0.0)
        sla.ttftLimit = secondsToTicks(options.ttftLimitSeconds);
    if (options.mtpotLimitSeconds > 0.0)
        sla.mtpotLimit = secondsToTicks(options.mtpotLimitSeconds);
    return sla;
}

/** Parse "--priority-mix 0.8,0.2"-style class shares. */
std::vector<double>
parsePriorityMix(const std::string &text)
{
    std::vector<double> shares;
    double total = 0.0;
    for (const std::string &field : splitString(text, ',')) {
        double share = 0.0;
        if (!parseDouble(std::string(trimString(field)), share) ||
            share < 0.0) {
            throw std::invalid_argument("bad priority mix: " + text);
        }
        shares.push_back(share);
        total += share;
    }
    if (total <= 0.0)
        throw std::invalid_argument("bad priority mix: " + text);
    return shares;
}

/** Build the tenant mix from --tenants/--tenant-zipf/
 *  --tenant-weights (weights validated against the tenant count). */
workload::TenantMix
makeTenantMix(const CliOptions &options)
{
    workload::TenantMix mix;
    mix.numTenants = options.tenants;
    mix.zipfExponent = options.tenantZipf;
    if (!options.tenantWeights.empty()) {
        for (const std::string &field :
             splitString(options.tenantWeights, ',')) {
            double weight = 0.0;
            if (!parseDouble(std::string(trimString(field)),
                             weight) ||
                weight <= 0.0) {
                throw std::invalid_argument(
                    "bad tenant weights: " + options.tenantWeights);
            }
            mix.weights.push_back(weight);
        }
        if (mix.weights.size() != options.tenants) {
            throw std::invalid_argument(
                "tenant weights name " +
                std::to_string(mix.weights.size()) +
                " tenants but --tenants is " +
                std::to_string(options.tenants));
        }
    }
    return mix;
}

/**
 * Expand "--platform-mix a100-80g:2,a30:2" into one hardware name
 * per instance (a bare name counts once).
 */
std::vector<std::string>
expandPlatformMix(const std::string &text, std::size_t instances)
{
    std::vector<std::string> names;
    for (const std::string &field : splitString(text, ',')) {
        std::string entry(trimString(field));
        std::uint64_t count = 1;
        const auto colon = entry.find(':');
        if (colon != std::string::npos) {
            if (!parseUnsigned(entry.substr(colon + 1), count) ||
                count == 0) {
                throw std::invalid_argument("bad platform mix: " +
                                            text);
            }
            entry = entry.substr(0, colon);
        }
        if (entry.empty())
            throw std::invalid_argument("bad platform mix: " + text);
        // Bound before expanding: a bogus huge count must fail with
        // a diagnostic, not materialize billions of strings.
        if (count > instances - names.size()) {
            throw std::invalid_argument(
                "platform mix names more than the " +
                std::to_string(instances) + " --instances");
        }
        for (std::uint64_t i = 0; i < count; ++i)
            names.push_back(entry);
    }
    if (names.size() != instances) {
        throw std::invalid_argument(
            "platform mix names " + std::to_string(names.size()) +
            " instances but --instances is " +
            std::to_string(instances));
    }
    return names;
}

engine::EngineConfig
makeEngineConfig(const CliOptions &options)
{
    engine::EngineConfig config;
    config.blockSize = options.blockSize;
    config.splitFuse = options.splitFuse;
    config.maxBatchSize = options.maxBatchSize;
    config.warmupRequests = options.warmupRequests;

    if (options.prefixCache == "on")
        config.prefixCache = true;
    else if (options.prefixCache == "off")
        config.prefixCache = false;
    else
        throw std::invalid_argument("unknown prefix-cache mode: " +
                                    options.prefixCache);

    if (options.evictionPolicy == "lifo")
        config.evictionPolicy = engine::EvictionPolicy::Lifo;
    else if (options.evictionPolicy == "fifo")
        config.evictionPolicy = engine::EvictionPolicy::Fifo;
    else
        throw std::invalid_argument("unknown eviction policy: " +
                                    options.evictionPolicy);

    if (options.evictionMode == "recompute")
        config.evictionMode = engine::EvictionMode::Recompute;
    else if (options.evictionMode == "swap")
        config.evictionMode = engine::EvictionMode::Swap;
    else
        throw std::invalid_argument("unknown eviction mode: " +
                                    options.evictionMode);
    return config;
}

/** Flags taking no value. */
constexpr const char *kBooleanFlags[] = {"--autoscale", "--disagg",
                                         "--split-fuse",
                                         "--tenant-tree", "--help"};

/**
 * Bindings of every valued flag to its slot in `options`. Shared by
 * parseCliArgs and cliFlagNames so the usage audit can never miss a
 * flag that parsing accepts.
 */
std::map<std::string, std::function<bool(const std::string &)>>
valuedFlagBindings(CliOptions &options)
{
    std::map<std::string, std::function<bool(const std::string &)>>
        valued;

    auto bind_string = [](std::string &slot) {
        return [&slot](const std::string &value) {
            slot = value;
            return true;
        };
    };
    auto bind_size = [](std::size_t &slot) {
        return [&slot](const std::string &value) {
            std::uint64_t parsed = 0;
            if (!parseUnsigned(value, parsed))
                return false;
            slot = static_cast<std::size_t>(parsed);
            return true;
        };
    };
    auto bind_double = [](double &slot) {
        return [&slot](const std::string &value) {
            return parseDouble(value, slot);
        };
    };

    valued["--workload"] = bind_string(options.workload);
    valued["--requests"] = bind_size(options.requests);
    valued["--seed"] = [&options](const std::string &value) {
        return parseUnsigned(value, options.seed);
    };
    valued["--sessions"] = bind_size(options.sessions);
    valued["--turns"] = bind_size(options.turns);
    valued["--system-prompt-tokens"] =
        [&options](const std::string &value) {
            std::uint64_t parsed = 0;
            if (!parseUnsigned(value, parsed) || parsed == 0)
                return false;
            options.systemPromptTokens =
                static_cast<TokenCount>(parsed);
            return true;
        };
    valued["--prefix-cache"] = bind_string(options.prefixCache);
    valued["--clients"] = bind_size(options.clients);
    valued["--rate"] = bind_double(options.poissonRate);
    valued["--think-time"] = bind_double(options.thinkSeconds);
    valued["--scheduler"] = bind_string(options.scheduler);
    valued["--overcommit"] = bind_double(options.overcommit);
    valued["--watermark"] = bind_double(options.watermark);
    valued["--reserved-ratio"] = bind_double(options.reservedRatio);
    valued["--window-size"] = bind_size(options.windowSize);
    valued["--queue-policy"] = bind_string(options.queuePolicy);
    valued["--priority-mix"] = bind_string(options.priorityMix);
    valued["--tenants"] = bind_size(options.tenants);
    valued["--tenant-zipf"] = bind_double(options.tenantZipf);
    valued["--tenant-weights"] = bind_string(options.tenantWeights);
    valued["--model"] = bind_string(options.model);
    valued["--hardware"] = bind_string(options.hardware);
    valued["--tp"] = [&options](const std::string &value) {
        std::uint64_t parsed = 0;
        if (!parseUnsigned(value, parsed) || parsed == 0)
            return false;
        options.tensorParallel = static_cast<int>(parsed);
        return true;
    };
    valued["--instances"] = bind_size(options.instances);
    valued["--sim-threads"] = bind_size(options.simThreads);
    valued["--prefill-instances"] =
        bind_size(options.prefillInstances);
    valued["--decode-instances"] =
        bind_size(options.decodeInstances);
    valued["--handoff-depth"] = bind_size(options.handoffDepth);
    valued["--link-gbps"] = bind_double(options.linkGbps);
    valued["--link-latency"] =
        bind_double(options.linkLatencySeconds);
    valued["--trace-replay"] = bind_string(options.traceReplay);
    valued["--routing"] = bind_string(options.routing);
    valued["--platform-mix"] = bind_string(options.platformMix);
    valued["--drain-at"] = bind_double(options.drainAtSeconds);
    valued["--min-instances"] = bind_size(options.minInstances);
    valued["--max-instances"] = bind_size(options.maxInstances);
    valued["--provision-delay"] =
        bind_double(options.provisionDelaySeconds);
    valued["--scale-policy"] = bind_string(options.scalePolicy);
    valued["--scale-slo-target"] =
        bind_double(options.scaleSloTarget);
    valued["--shed-policy"] = bind_string(options.shedPolicy);
    valued["--rate-schedule"] = bind_string(options.rateSchedule);
    valued["--ttft-limit"] = bind_double(options.ttftLimitSeconds);
    valued["--mtpot-limit"] = bind_double(options.mtpotLimitSeconds);
    valued["--block-size"] = [&options](const std::string &value) {
        std::uint64_t parsed = 0;
        if (!parseUnsigned(value, parsed) || parsed == 0)
            return false;
        options.blockSize = static_cast<TokenCount>(parsed);
        return true;
    };
    valued["--max-batch"] = bind_size(options.maxBatchSize);
    valued["--eviction-policy"] =
        bind_string(options.evictionPolicy);
    valued["--eviction-mode"] = bind_string(options.evictionMode);
    valued["--warmup"] = bind_size(options.warmupRequests);
    valued["--max-requests"] = bind_size(options.maxFinishedRequests);
    valued["--max-seconds"] = bind_double(options.maxSimSeconds);
    valued["--format"] = bind_string(options.format);
    valued["--csv"] = bind_string(options.csvPath);
    valued["--trace-out"] = bind_string(options.traceOut);
    valued["--trace-detail"] = bind_string(options.traceDetail);
    valued["--trace-limit"] =
        [&options](const std::string &value) {
            std::uint64_t parsed = 0;
            if (!parseUnsigned(value, parsed) || parsed == 0)
                return false;
            options.traceLimit = static_cast<std::size_t>(parsed);
            return true;
        };
    return valued;
}

} // namespace

std::vector<std::string>
cliFlagNames()
{
    CliOptions scratch;
    std::vector<std::string> names;
    for (const auto &[name, binding] : valuedFlagBindings(scratch))
        names.push_back(name);
    for (const char *name : kBooleanFlags)
        names.push_back(name);
    return names;
}

std::string
parseCliArgs(int argc, const char *const *argv, CliOptions &options)
{
    // Flags taking a value, keyed by name.
    const std::map<std::string,
                   std::function<bool(const std::string &)>>
        valued = valuedFlagBindings(options);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            options.showHelp = true;
            return "";
        }
        if (arg == "--split-fuse") {
            options.splitFuse = true;
            continue;
        }
        if (arg == "--autoscale") {
            options.autoscale = true;
            continue;
        }
        if (arg == "--disagg") {
            options.disagg = true;
            continue;
        }
        if (arg == "--tenant-tree") {
            options.tenantTree = true;
            continue;
        }

        // Accept both "--flag value" and "--flag=value".
        std::string value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        }
        auto it = valued.find(arg);
        if (it == valued.end())
            return "unknown flag: " + arg;
        if (eq == std::string::npos) {
            if (i + 1 >= argc)
                return "missing value for " + arg;
            value = argv[++i];
        }
        if (!it->second(value))
            return "bad value for " + arg + ": " + value;
    }

    if (options.format != "table" && options.format != "json" &&
        options.format != "both")
        return "bad value for --format: " + options.format;
    if (options.prefixCache != "on" && options.prefixCache != "off")
        return "bad value for --prefix-cache: " +
            options.prefixCache + " (use on | off)";
    if (options.sessions > 0) {
        if (options.turns == 0)
            return "--turns must be positive";
        if (options.poissonRate > 0.0)
            return "--rate is open-loop; the session workload is "
                   "closed-loop by construction";
        if (!options.rateSchedule.empty())
            return "--rate-schedule is open-loop; the session "
                   "workload is closed-loop by construction";
        if (!options.priorityMix.empty())
            return "--priority-mix applies to dataset workloads, "
                   "not --sessions";
        if (options.tenants > 0)
            return "--tenants applies to dataset workloads, not "
                   "--sessions";
    }
    if (!options.traceReplay.empty()) {
        if (options.sessions > 0)
            return "--trace-replay replays a recorded dataset; "
                   "exclusive with --sessions";
        if (options.poissonRate > 0.0)
            return "--trace-replay replays measured arrivals; "
                   "exclusive with --rate";
        if (!options.rateSchedule.empty())
            return "--trace-replay replays measured arrivals; "
                   "exclusive with --rate-schedule";
    }
    if (options.disagg) {
        if (options.sessions > 0)
            return "--disagg serves dataset workloads; --sessions "
                   "is not supported";
        if (options.instances > 1)
            return "--disagg sizes the fleet with "
                   "--prefill-instances/--decode-instances, not "
                   "--instances";
        if (!options.routing.empty())
            return "--disagg fixes routing (prefill-load into the "
                   "prefill pool, future-memory into the decode "
                   "pool)";
        if (!options.platformMix.empty())
            return "--platform-mix is colocated-fleet only; "
                   "--disagg pools share --hardware";
        if (options.drainAtSeconds > 0.0)
            return "--drain-at composes with colocated fleets; "
                   "drain a disagg pool programmatically";
        if (options.maxFinishedRequests > 0 ||
            options.maxSimSeconds > 0.0)
            return "run limits (--max-requests/--max-seconds) are "
                   "single-instance only; --disagg runs two pools";
        if (options.linkGbps < 0.0)
            return "--link-gbps must be non-negative";
    } else {
        if (options.prefillInstances > 0)
            return "--prefill-instances needs --disagg";
        if (options.decodeInstances > 0)
            return "--decode-instances needs --disagg";
        if (options.handoffDepth > 0)
            return "--handoff-depth needs --disagg";
        if (options.linkGbps != 0.0)
            return "--link-gbps needs --disagg";
        if (options.linkLatencySeconds >= 0.0)
            return "--link-latency needs --disagg";
    }
    if (options.tenants == 0) {
        if (options.tenantTree)
            return "--tenant-tree needs --tenants";
        if (options.tenantZipf != 0.0)
            return "--tenant-zipf needs --tenants";
        if (!options.tenantWeights.empty())
            return "--tenant-weights needs --tenants";
    }
    if (options.tenantZipf < 0.0)
        return "--tenant-zipf must be non-negative";
    if (options.tenantZipf > 0.0 && !options.tenantWeights.empty())
        return "--tenant-zipf and --tenant-weights are exclusive "
               "(explicit weights already fix the shares)";
    if (!options.rateSchedule.empty() && options.poissonRate > 0.0)
        return "--rate and --rate-schedule are exclusive (a "
               "schedule already fixes the arrival process)";
    if (options.autoscale) {
        if (options.minInstances == 0)
            return "--min-instances must be at least 1";
        if (options.minInstances > options.maxInstances)
            return "--min-instances exceeds --max-instances";
        if (options.disagg) {
            const std::size_t prefill =
                options.prefillInstances == 0
                ? 1 : options.prefillInstances;
            const std::size_t decode =
                options.decodeInstances == 0
                ? 1 : options.decodeInstances;
            if (prefill < options.minInstances ||
                prefill > options.maxInstances ||
                decode < options.minInstances ||
                decode > options.maxInstances)
                return "--prefill-instances/--decode-instances "
                       "must start inside [--min-instances, "
                       "--max-instances]";
        } else if (options.instances < options.minInstances ||
                   options.instances > options.maxInstances) {
            return "--instances must start inside "
                   "[--min-instances, --max-instances]";
        }
        if (options.provisionDelaySeconds < 0.0)
            return "--provision-delay must be non-negative";
        if (options.scaleSloTarget <= 0.0 ||
            options.scaleSloTarget > 1.0)
            return "--scale-slo-target must be in (0, 1]";
        if (options.maxFinishedRequests > 0 ||
            options.maxSimSeconds > 0.0)
            return "run limits (--max-requests/--max-seconds) are "
                   "single-instance only; --autoscale runs a "
                   "cluster";
        if (options.drainAtSeconds > 0.0)
            return "--drain-at composes with static fleets; "
                   "--autoscale manages drains itself";
        if (options.shedPolicy != "never" &&
            options.poissonRate <= 0.0 &&
            options.rateSchedule.empty() &&
            options.traceReplay.empty()) {
            return "--shed-policy overload needs open-loop load "
                   "(--rate, --rate-schedule, or --trace-replay): "
                   "a shed request gets no completion, so "
                   "closed-loop clients and sessions would stall "
                   "on it";
        }
    } else if (options.shedPolicy != "never") {
        return "--shed-policy needs --autoscale (shedding guards "
               "the fleet's max scale)";
    }
    if (options.requests == 0)
        return "--requests must be positive";
    if (options.clients == 0 && options.poissonRate <= 0.0 &&
        options.rateSchedule.empty() && options.traceReplay.empty())
        return "--clients must be positive in closed-loop mode";
    if (options.thinkSeconds < 0.0)
        return "--think-time must be non-negative";
    if (options.poissonRate < 0.0)
        return "--rate must be non-negative";
    if (options.maxSimSeconds < 0.0)
        return "--max-seconds must be non-negative";
    if (options.instances == 0)
        return "--instances must be positive";
    if (options.simThreads == 0)
        return "--sim-threads must be positive";
    if (options.simThreads > 1 && options.instances < 2 &&
        !options.autoscale && !options.disagg)
        return "--sim-threads needs a co-simulated fleet "
               "(--instances >= 2, --autoscale, or --disagg); the "
               "single-engine path is self-clocked";
    if (options.drainAtSeconds < 0.0)
        return "--drain-at must be non-negative";
    if (options.instances > 1 &&
        (options.maxFinishedRequests > 0 ||
         options.maxSimSeconds > 0.0)) {
        return "run limits (--max-requests/--max-seconds) are "
               "single-instance only";
    }
    if (options.drainAtSeconds > 0.0 && options.instances < 2)
        return "--drain-at needs --instances >= 2 to re-dispatch";
    if (!options.platformMix.empty() && options.instances < 2)
        return "--platform-mix needs --instances >= 2 (use "
               "--hardware for a single instance)";
    if (!options.routing.empty() && options.instances < 2 &&
        !options.autoscale)
        return "--routing needs --instances >= 2 or --autoscale "
               "(a single static instance has nothing to route "
               "across)";
    if (!options.traceDetail.empty()) {
        trace::TraceDetail detail = trace::TraceDetail::Off;
        if (!trace::parseTraceDetail(options.traceDetail, &detail))
            return "bad value for --trace-detail: " +
                options.traceDetail +
                " (use off | requests | steps | full)";
        if (detail != trace::TraceDetail::Off &&
            options.traceOut.empty())
            return "--trace-detail needs --trace-out";
    }
    if (options.traceLimit > 0 && options.traceOut.empty())
        return "--trace-limit needs --trace-out";
    return "";
}

void
printCliUsage(std::ostream &os)
{
    os <<
        "pfs_cli — run one serving scenario and report metrics\n"
        "\n"
        "Workload:\n"
        "  --workload NAME     sharegpt | sharegpt-o1 | dist1 | dist2\n"
        "                      | dist3 | textvqa | trace-conversation\n"
        "                      | trace-api | trace-code | trace-longdoc\n"
        "  --requests N        dataset size (default 512)\n"
        "  --seed N            RNG seed (default 42)\n"
        "  --clients N         closed-loop client count (default 32)\n"
        "  --rate R            open-loop Poisson arrivals/sec\n"
        "                      (overrides closed loop)\n"
        "  --rate-schedule S   open-loop time-varying arrivals:\n"
        "                      const:R | steps:RxS,... |\n"
        "                      spike:BASE,PEAK,AT,DUR |\n"
        "                      diurnal:BASE,AMP,PERIOD[,STEPS\n"
        "                      [,CYCLES]] (seconds; exclusive\n"
        "                      with --rate)\n"
        "  --think-time S      closed-loop (and per-turn session)\n"
        "                      think time, seconds\n"
        "  --trace-replay PATH replay a dataset CSV carrying an\n"
        "                      arrival_us column at its recorded\n"
        "                      timestamps (replaces --workload /\n"
        "                      --requests and the load generators)\n"
        "\n"
        "Multi-turn sessions (replaces --workload when set):\n"
        "  --sessions N        concurrent conversations (0 = off);\n"
        "                      every turn shares the system prompt\n"
        "                      and prepends its session history\n"
        "  --turns N           requests per session (default 4)\n"
        "  --system-prompt-tokens N\n"
        "                      shared system prompt length (512)\n"
        "\n"
        "Scheduler:\n"
        "  --scheduler NAME    past_future | aggressive |\n"
        "                      conservative | oracle\n"
        "  --reserved-ratio F  past_future reserve (default 0.03)\n"
        "  --window-size N     past_future history window (1000)\n"
        "  --watermark F       aggressive watermark (default 0.95)\n"
        "  --overcommit F      conservative multiplier (default 1.0)\n"
        "  --queue-policy P    fcfs | sjf | edf | priority\n"
        "                      (queue ordering; default fcfs)\n"
        "  --priority-mix L    class shares, lowest first, e.g.\n"
        "                      0.8,0.2 = 20% priority-1 requests\n"
        "\n"
        "Multi-tenant isolation:\n"
        "  --tenants N         tenants drawing the workload's\n"
        "                      requests, ids 0..N-1 (default 0 =\n"
        "                      single tenant)\n"
        "  --tenant-zipf S     Zipf exponent of the tenant traffic\n"
        "                      shares (default 0 = uniform)\n"
        "  --tenant-weights L  explicit tenant shares, e.g. 8,1,1\n"
        "                      (count = --tenants; exclusive with\n"
        "                      --tenant-zipf)\n"
        "  --tenant-tree       schedule through the per-tenant\n"
        "                      fair tree (weighted fair queueing\n"
        "                      over tenants, --queue-policy within\n"
        "                      one; also makes overload shedding\n"
        "                      fairness-aware). Off = flat\n"
        "                      bit-exact pipeline\n"
        "\n"
        "Platform:\n"
        "  --model NAME        llama2-7b | llama2-13b | llama2-70b |\n"
        "                      qwen-vl-chat | llava15-7b | llava15-13b\n"
        "  --hardware NAME     a100-80g | h800 | rtx4090 | a30\n"
        "  --tp N              tensor-parallel degree (default 1)\n"
        "\n"
        "Fleet (exact event-driven co-simulation when N > 1):\n"
        "  --instances N       fleet size (default 1)\n"
        "  --routing P         round-robin | least-outstanding |\n"
        "                      future-memory (the default) |\n"
        "                      prefix-affinity (sticky sessions:\n"
        "                      turns follow their cached prefix)\n"
        "  --platform-mix L    per-instance hardware, name[:count]\n"
        "                      entries summing to N, e.g.\n"
        "                      a100-80g:2,a30:2 (default:\n"
        "                      --hardware everywhere)\n"
        "  --drain-at S        drain instance 0 after S simulated\n"
        "                      seconds; its queued requests\n"
        "                      re-dispatch through the router\n"
        "  --sim-threads K     shard the fleet's engines across K\n"
        "                      compute threads (default 1); results\n"
        "                      are bit-identical to the\n"
        "                      single-threaded run (works with\n"
        "                      --autoscale and --disagg too)\n"
        "\n"
        "Disaggregated prefill/decode (KV migration over a modeled\n"
        "interconnect; exclusive with --instances/--routing):\n"
        "  --disagg            split the fleet into a prefill pool\n"
        "                      (routed by pending prefill load) and\n"
        "                      a decode pool (future-memory);\n"
        "                      finished prefill KV migrates through\n"
        "                      a bounded handoff queue\n"
        "  --prefill-instances N\n"
        "                      prefill pool size (default 1)\n"
        "  --decode-instances N\n"
        "                      decode pool size (default 1)\n"
        "  --handoff-depth N   handoff queue bound; a transfer\n"
        "                      finding it full is shed (default 64)\n"
        "  --link-gbps G       interconnect bandwidth, GB/s\n"
        "                      (default: the hardware's\n"
        "                      interconnect profile)\n"
        "  --link-latency S    fixed per-transfer latency, seconds\n"
        "                      (default: hardware profile)\n"
        "\n"
        "Elastic autoscaling (SLA -> capacity control loop;\n"
        "with --disagg, one independent loop per pool):\n"
        "  --autoscale         close the loop: provision/retire\n"
        "                      instances from SLO attainment and\n"
        "                      fleet-wide future-memory forecasts\n"
        "                      (works from --instances 1 up)\n"
        "  --min-instances N   scale-down floor (default 1)\n"
        "  --max-instances N   scale-up ceiling (default 8)\n"
        "  --provision-delay S cold-start delay before a new\n"
        "                      instance joins the router (10)\n"
        "  --scale-policy P    reactive (threshold+hysteresis on\n"
        "                      observed attainment) | predictive\n"
        "                      (fleet-wide future-memory forecast,\n"
        "                      the default)\n"
        "  --scale-slo-target F attainment target in (0, 1]\n"
        "                      (default 0.9)\n"
        "  --shed-policy P     never (default) | overload: at max\n"
        "                      scale, reject arrivals that would\n"
        "                      push outstanding work past the\n"
        "                      shed bound instead of queueing\n"
        "                      without limit\n"
        "\n"
        "SLA (defaults follow the paper, by model size):\n"
        "  --ttft-limit S      TTFT limit, seconds\n"
        "  --mtpot-limit S     max time-per-output-token, seconds\n"
        "\n"
        "Engine:\n"
        "  --block-size N      KV block size (default 16)\n"
        "  --prefix-cache M    on | off (default off): shared-prefix\n"
        "                      KV reuse with copy-on-write blocks;\n"
        "                      admission charges and prefills only\n"
        "                      the uncached prompt suffix\n"
        "  --split-fuse        enable chunked prefill\n"
        "  --max-batch N       running-batch cap (0 = unlimited)\n"
        "  --eviction-policy P lifo | fifo\n"
        "  --eviction-mode M   recompute | swap\n"
        "  --warmup N          discard metrics of first N requests\n"
        "\n"
        "Run limits / output:\n"
        "  --max-requests N    stop after N finished requests\n"
        "  --max-seconds S     stop after S simulated seconds\n"
        "  --format F          table | json | both (default table)\n"
        "  --csv PATH          also write per-request CSV\n"
        "\n"
        "Flight recorder (read-only: the RunReport is\n"
        "byte-identical with tracing on or off):\n"
        "  --trace-out PATH    write a Chrome trace-event JSON\n"
        "                      (open in Perfetto / chrome://tracing)\n"
        "                      plus a per-request timeline at\n"
        "                      PATH.requests.csv\n"
        "  --trace-detail L    off | requests (lifecycle spans and\n"
        "                      decision instants; the default when\n"
        "                      --trace-out is set) | steps (+ per-\n"
        "                      iteration engine counters) | full\n"
        "                      (+ per-shard wall-clock profiling\n"
        "                      under --sim-threads)\n"
        "  --trace-limit N     per-sink event ring capacity\n"
        "                      (default 65536); the oldest events\n"
        "                      drop when a ring wraps\n"
        "  --help, -h          show this reference\n";
}

Scenario
assembleScenario(const CliOptions &options)
{
    const model::ModelSpec model_spec = makeModelSpec(options.model);

    workload::Dataset dataset;
    workload::SessionWorkloadConfig session_config;
    const bool session_mode = options.sessions > 0;
    if (session_mode) {
        session_config.numSessions = options.sessions;
        session_config.turnsPerSession = options.turns;
        session_config.systemPromptTokens =
            options.systemPromptTokens;
        session_config.thinkTime =
            secondsToTicks(options.thinkSeconds);
        session_config.seed = options.seed;
        // The dataset stands in for naming and generation caps so
        // the scheduler-seeding path below is shared.
        dataset.name = "sessions(" +
            std::to_string(options.sessions) + "x" +
            std::to_string(options.turns) + ")";
        dataset.maxNewTokens = session_config.maxNewTokens;
    } else {
        // textvqa's vision prefix follows the selected model
        // (Qwen-VL uses 256 image tokens, LLaVA 576); text-only
        // models fall back to the LLaVA-sized prefix.
        const TokenCount image_tokens =
            model_spec.imageTokens > 0 ? model_spec.imageTokens
                                       : 576;
        if (!options.traceReplay.empty()) {
            dataset =
                workload::readDatasetCsvFile(options.traceReplay);
            for (const workload::RequestSpec &spec :
                 dataset.requests) {
                if (spec.arrivalTick < 0) {
                    throw std::invalid_argument(
                        "--trace-replay dataset " +
                        options.traceReplay + ": request " +
                        std::to_string(spec.id) +
                        " has no arrival_us timestamp");
                }
            }
        } else {
            dataset = makeWorkload(options.workload,
                                   options.requests, options.seed,
                                   image_tokens);
        }

        if (!options.priorityMix.empty()) {
            workload::assignPriorityMix(
                dataset, parsePriorityMix(options.priorityMix),
                options.seed ^ 0x9e3779b97f4a7c15ull);
        }

        if (options.tenants > 0) {
            // A distinct seed stream so the tenant draw composes
            // with (not perturbs) the priority draw.
            workload::assignTenantMix(
                dataset, makeTenantMix(options),
                options.seed ^ 0x517cc1b727220a95ull);
        }
    }

    const metrics::SlaSpec sla = makeSla(options);

    core::SchedulerConfig scheduler_config =
        makeSchedulerConfig(options);
    // Cold-start seeding with the service cap, as the benches do.
    scheduler_config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    if (!core::parseQueuePolicyKind(options.queuePolicy,
                                    scheduler_config.queue.kind)) {
        throw std::invalid_argument("unknown queue policy: " +
                                    options.queuePolicy);
    }
    scheduler_config.queue.predictorWindow = options.windowSize;
    scheduler_config.queue.seedOutputLen = dataset.maxNewTokens;
    // EDF deadlines follow the scenario's TTFT SLA.
    scheduler_config.queue.ttftDeadline = sla.ttftLimit;

    if (options.tenantTree) {
        // Fair weights follow the configured traffic shares, so
        // "fair" means proportional to each tenant's entitlement.
        scheduler_config.tenantTree = true;
        scheduler_config.tenantSpec.numTenants = options.tenants;
        scheduler_config.tenantSpec.weights =
            workload::tenantTreeWeights(makeTenantMix(options));
    }

    engine::RunLimits limits;
    limits.maxFinishedRequests = options.maxFinishedRequests;
    if (options.maxSimSeconds > 0.0)
        limits.maxTicks = secondsToTicks(options.maxSimSeconds);

    Scenario scenario{
        std::move(dataset),
        session_mode,
        session_config,
        scheduler_config,
        model::PerfModel(model_spec,
                         makeHardwareSpec(options.hardware,
                                          options.tensorParallel)),
        sla,
        makeEngineConfig(options),
        limits,
        options.clients,
        options.poissonRate,
        secondsToTicks(options.thinkSeconds),
        options.seed,
        {},
        cluster::RoutingPolicy::FutureMemory,
        0,
        1,
        false,
        workload::RateSchedule::constant(1.0),
        false,
        {},
        {},
    };

    if (!options.rateSchedule.empty()) {
        std::string error;
        if (!workload::parseRateSchedule(options.rateSchedule,
                                         scenario.rateSchedule,
                                         error)) {
            throw std::invalid_argument("bad --rate-schedule: " +
                                        error);
        }
        scenario.hasRateSchedule = true;
    }

    if (options.autoscale) {
        scenario.autoscale = true;
        autoscale::AutoscaleConfig &config =
            scenario.autoscaleConfig;
        config.minInstances = options.minInstances;
        config.maxInstances = options.maxInstances;
        config.provisionDelay =
            secondsToTicks(options.provisionDelaySeconds);
        config.sloTarget = options.scaleSloTarget;
        config.sla = sla;
        if (!autoscale::parseShedPolicy(options.shedPolicy,
                                        config.shedPolicy)) {
            throw std::invalid_argument("unknown shed policy: " +
                                        options.shedPolicy);
        }
        if (options.tenants > 0) {
            // Fairness-aware shedding: under overload the tenants
            // over their traffic share absorb the rejections.
            config.tenantShares = makeTenantMix(options).shares();
        }
        // Validate the policy name here so a typo fails before the
        // simulation, not inside it.
        if (autoscale::makeScalePolicy(options.scalePolicy,
                                       config.sloTarget) ==
            nullptr) {
            throw std::invalid_argument("unknown scale policy: " +
                                        options.scalePolicy);
        }
        scenario.scalePolicyName = options.scalePolicy;
    }

    if (!options.routing.empty() &&
        !cluster::parseRoutingPolicy(options.routing,
                                     scenario.routing)) {
        throw std::invalid_argument("unknown routing policy: " +
                                    options.routing);
    }
    if ((options.instances > 1 || options.autoscale) &&
        !options.disagg) {
        // Guarded in parseCliArgs for the CLI; repeated here so
        // programmatic callers cannot assemble a fleet whose run
        // limits would be silently ignored.
        if (options.maxFinishedRequests > 0 ||
            options.maxSimSeconds > 0.0) {
            throw std::invalid_argument(
                "run limits are single-instance only");
        }
        const std::vector<std::string> mix =
            options.platformMix.empty()
            ? std::vector<std::string>(options.instances,
                                       options.hardware)
            : expandPlatformMix(options.platformMix,
                                options.instances);
        scenario.fleetPerfs.reserve(mix.size());
        for (const std::string &hardware : mix) {
            scenario.fleetPerfs.emplace_back(
                model_spec,
                makeHardwareSpec(hardware,
                                 options.tensorParallel));
        }
        if (options.drainAtSeconds > 0.0) {
            // Sub-tick values would round to 0 and silently skip
            // the drain; "as early as possible" is tick 1.
            scenario.drainAt = std::max<Tick>(
                1, secondsToTicks(options.drainAtSeconds));
        }
    }
    scenario.tenants = options.tenants;
    scenario.traceReplay = !options.traceReplay.empty();
    scenario.simThreads =
        static_cast<std::uint32_t>(options.simThreads);

    if (options.disagg) {
        scenario.disagg = true;
        scenario.prefillInstances = options.prefillInstances == 0
            ? 1 : options.prefillInstances;
        scenario.decodeInstances = options.decodeInstances == 0
            ? 1 : options.decodeInstances;
        disagg::DisaggConfig &config = scenario.disaggConfig;
        config.kvBytesPerToken = model_spec.kvBytesPerToken();
        config.blockSize = scenario.engineConfig.blockSize;
        const model::HardwareSpec &hardware =
            scenario.perf.hardwareSpec();
        config.linkBandwidth = options.linkGbps > 0.0
            ? options.linkGbps * 1e9
            : hardware.interconnectBandwidth;
        config.transferLatency = secondsToTicks(
            options.linkLatencySeconds >= 0.0
            ? options.linkLatencySeconds
            : hardware.interconnectLatency);
        if (options.handoffDepth > 0)
            config.handoffDepth = options.handoffDepth;
    }

    if (!options.traceOut.empty()) {
        scenario.traceOut = options.traceOut;
        const std::string detail = options.traceDetail.empty()
            ? "requests" : options.traceDetail;
        if (!trace::parseTraceDetail(detail,
                                     &scenario.traceDetail)) {
            throw std::invalid_argument("unknown trace detail: " +
                                        detail);
        }
        if (options.traceLimit > 0)
            scenario.traceLimit = options.traceLimit;
    }
    return scenario;
}

metrics::RunReport
runScenario(const Scenario &scenario)
{
    if (scenario.traceDetail == trace::TraceDetail::Off ||
        scenario.traceOut.empty())
        return runScenario(scenario, nullptr);

    trace::TraceConfig config;
    config.detail = scenario.traceDetail;
    config.ringCapacity = scenario.traceLimit;
    trace::TraceRecorder recorder(config);
    metrics::RunReport report = runScenario(scenario, &recorder);
    if (!recorder.writeChromeJsonFile(scenario.traceOut)) {
        throw std::runtime_error("cannot write trace file: " +
                                 scenario.traceOut);
    }
    const std::string csv_path = scenario.traceOut +
        ".requests.csv";
    if (!recorder.writeRequestCsvFile(csv_path)) {
        throw std::runtime_error("cannot write trace file: " +
                                 csv_path);
    }
    return report;
}

namespace {

/** Installs a completion listener on a run target. */
using FinishHook =
    std::function<void(engine::ServingEngine::FinishCallback)>;

/**
 * Attach the scenario's load generator (sessions, trace replay, rate
 * schedule, Poisson, or closed loop) to `sink`, route completions
 * back to the closed-loop generators through `set_on_finish`, and
 * return `run()`'s report.
 */
metrics::RunReport
driveLoad(const Scenario &scenario, workload::RequestSink &sink,
          const FinishHook &set_on_finish,
          const std::function<metrics::RunReport()> &run)
{
    if (scenario.sessionMode) {
        workload::SessionGenerator sessions(scenario.sessionConfig,
                                            sink);
        set_on_finish(
            [&](const workload::RequestSpec &spec, Tick tick) {
                sessions.onRequestFinished(spec.id, tick);
            });
        sessions.start();
        return run();
    }
    if (scenario.traceReplay) {
        workload::submitTraceArrivals(scenario.dataset, sink);
        return run();
    }
    if (scenario.hasRateSchedule) {
        workload::submitScheduledArrivals(scenario.dataset, sink,
                                          scenario.rateSchedule,
                                          scenario.seed);
        return run();
    }
    if (scenario.poissonRate > 0.0) {
        workload::submitPoissonArrivals(scenario.dataset, sink,
                                        scenario.poissonRate,
                                        scenario.seed);
        return run();
    }
    workload::ClosedLoopClientPool clients(
        scenario.clients, scenario.dataset, sink,
        scenario.thinkTime);
    set_on_finish(
        [&](const workload::RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    return run();
}

} // namespace

metrics::RunReport
runScenario(const Scenario &scenario,
            trace::TraceRecorder *recorder)
{
    // Every engine (single, fleet member, pool member, autoscaled
    // clone) runs the scenario's scheduler + engine configuration;
    // only the platform varies.
    const auto make_engine =
        [&scenario](const model::PerfModel &perf) {
            return std::make_unique<engine::ServingEngine>(
                perf,
                core::makeSchedulingPolicy(scenario.schedulerConfig),
                scenario.engineConfig);
        };
    // Pool members and provisioned instances clone the base
    // platform (--hardware).
    const auto make_clone = [&]() {
        return make_engine(scenario.perf);
    };
    const auto enable_autoscale = [&](cluster::ServingCluster &pool,
                                      autoscale::ShedPolicy shed) {
        pool.setInstanceFactory(make_clone);
        autoscale::AutoscaleConfig config = scenario.autoscaleConfig;
        config.shedPolicy = shed;
        auto policy = autoscale::makeScalePolicy(
            scenario.scalePolicyName, config.sloTarget);
        LIGHTLLM_ASSERT(policy != nullptr,
                        "scale policy validated at assembly");
        pool.enableAutoscale(config, std::move(policy));
    };

    if (scenario.disagg) {
        // Disaggregated fleet: the pools differ only in routing and
        // in the work the DisaggCluster hands them.
        std::vector<std::unique_ptr<engine::ServingEngine>> prefill;
        for (std::size_t i = 0; i < scenario.prefillInstances; ++i)
            prefill.push_back(make_clone());
        std::vector<std::unique_ptr<engine::ServingEngine>> decode;
        for (std::size_t i = 0; i < scenario.decodeInstances; ++i)
            decode.push_back(make_clone());

        disagg::DisaggCluster cluster(std::move(prefill),
                                      std::move(decode),
                                      scenario.disaggConfig,
                                      scenario.simThreads);
        if (recorder != nullptr)
            cluster.attachTrace(recorder);
        if (scenario.autoscale) {
            // Two independent control loops. The decode pool never
            // sheds at admission: the bounded handoff queue is the
            // pipeline's only rejection point, so a request that
            // paid for prefill and migration is served.
            enable_autoscale(cluster.prefillPool(),
                             scenario.autoscaleConfig.shedPolicy);
            enable_autoscale(cluster.decodePool(),
                             autoscale::ShedPolicy::Never);
        }
        return driveLoad(
            scenario, cluster,
            [&](auto callback) { cluster.setOnFinish(callback); },
            [&]() { return cluster.run(); });
    }

    if (scenario.fleetPerfs.empty()) {
        // Single instance: the self-clocked engine path, kept
        // bit-identical through the SimContext refactor (golden
        // suite pins it).
        const auto engine = make_engine(scenario.perf);
        if (recorder != nullptr)
            engine->attachTrace(recorder->createEngine("engine-0"));
        return driveLoad(
            scenario, *engine,
            [&](auto callback) { engine->setOnFinish(callback); },
            [&]() { return engine->run(scenario.limits); });
    }

    // Fleet: engines co-simulate exactly on the cluster's shared
    // SimContext; the router places every request.
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    engines.reserve(scenario.fleetPerfs.size());
    for (const model::PerfModel &perf : scenario.fleetPerfs)
        engines.push_back(make_engine(perf));
    // With --sim-threads K > 1 the fleet borrows an external root
    // context enrolled in a sharded executor; adoption (inside the
    // cluster ctor) then places each engine on a worker shard. The
    // default K = 1 keeps the cluster-owned single-queue loop.
    sim::SimContext shardedRoot;
    std::unique_ptr<sim::ShardedSimContext> hub;
    if (scenario.simThreads > 1) {
        hub = std::make_unique<sim::ShardedSimContext>(
            shardedRoot, scenario.simThreads);
    }
    std::optional<cluster::ServingCluster> fleetStorage;
    if (hub) {
        fleetStorage.emplace(std::move(engines), scenario.routing,
                             shardedRoot);
    } else {
        fleetStorage.emplace(std::move(engines), scenario.routing);
    }
    cluster::ServingCluster &fleet = *fleetStorage;
    if (recorder != nullptr) {
        fleet.setTraceRecorder(recorder);
        if (hub)
            hub->attachTrace(recorder);
    }
    if (scenario.drainAt > 0)
        fleet.scheduleDrain(0, scenario.drainAt);
    if (scenario.autoscale)
        enable_autoscale(fleet, scenario.autoscaleConfig.shedPolicy);
    return driveLoad(
        scenario, fleet,
        [&](auto callback) { fleet.setOnFinish(callback); },
        [&]() { return fleet.run(); });
}

void
emitReport(std::ostream &os, const CliOptions &options,
           const Scenario &scenario,
           const metrics::RunReport &report)
{
    const metrics::SlaSpec &sla = scenario.sla;
    if (options.format == "table" || options.format == "both") {
        TextTable table({"metric", "value"});
        table.addRow({"scheduler", report.schedulerName});
        table.addRow({"workload", scenario.dataset.name});
        table.addRow({"finished",
                      formatCount(static_cast<std::int64_t>(
                          report.numFinished))});
        table.addRow({"makespan_s",
                      formatDouble(ticksToSeconds(report.makespan),
                                   2)});
        table.addRow({"throughput_tok_s",
                      formatDouble(report.throughputTokensPerSec(),
                                   1)});
        table.addRow({"goodput_tok_s",
                      formatDouble(report.goodputTokensPerSec(sla),
                                   1)});
        table.addRow({"sla_compliance",
                      formatPercent(
                          report.slaCompliantFraction(sla))});
        table.addRow({"mean_ttft_s",
                      formatDouble(report.meanTtftSeconds(), 3)});
        table.addRow({"p50_ttft_s",
                      formatDouble(report.p50TtftSeconds(), 3)});
        table.addRow({"p90_ttft_s",
                      formatDouble(report.p90TtftSeconds(), 3)});
        table.addRow({"p99_ttft_s",
                      formatDouble(report.p99TtftSeconds(), 3)});
        table.addRow({"p50_mtpot_s",
                      formatDouble(report.p50MtpotSeconds(), 3)});
        table.addRow({"p90_mtpot_s",
                      formatDouble(report.p90MtpotSeconds(), 3)});
        table.addRow({"p99_mtpot_s",
                      formatDouble(report.p99MtpotSeconds(), 3)});
        table.addRow({"avg_batch_size",
                      formatDouble(report.avgBatchSize, 1)});
        table.addRow({"eviction_events",
                      formatCount(report.evictionEvents)});
        table.addRow({"avg_consumed_mem",
                      formatPercent(report.avgConsumedMemory)});
        if (scenario.engineConfig.prefixCache) {
            table.addRow({"prefix_hit_rate",
                          formatPercent(report.prefixHitRate())});
            table.addRow({"prefix_hit_tokens",
                          formatCount(report.prefixHitTokens)});
        }
        if (scenario.autoscale) {
            table.addRow({"shed_requests",
                          formatCount(report.shedRequests)});
            table.addRow({"shed_rate",
                          formatPercent(report.shedRate())});
            table.addRow({"instance_seconds",
                          formatDouble(report.instanceSeconds,
                                       1)});
            table.addRow({"instance_cost",
                          formatDouble(report.instanceCost, 4)});
            table.addRow({"peak_instances",
                          formatCount(static_cast<std::int64_t>(
                              report.peakInstances))});
            table.addRow({"scale_up_events",
                          formatCount(report.scaleUpEvents)});
            table.addRow({"scale_down_events",
                          formatCount(report.scaleDownEvents)});
        }
        if (report.disaggregated) {
            if (!scenario.autoscale) {
                table.addRow({"instance_seconds",
                              formatDouble(report.instanceSeconds,
                                           1)});
                table.addRow({"instance_cost",
                              formatDouble(report.instanceCost,
                                           4)});
            }
            table.addRow({"prefill_pool_finished",
                          formatCount(static_cast<std::int64_t>(
                              report.prefillPool.finished))});
            table.addRow({"prefill_pool_p99_ttft_s",
                          formatDouble(
                              report.prefillPool.p99TtftSeconds,
                              3)});
            table.addRow({"prefill_pool_p99_mtpot_s",
                          formatDouble(
                              report.prefillPool.p99MtpotSeconds,
                              3)});
            table.addRow({"decode_pool_finished",
                          formatCount(static_cast<std::int64_t>(
                              report.decodePool.finished))});
            table.addRow({"decode_pool_p99_ttft_s",
                          formatDouble(
                              report.decodePool.p99TtftSeconds,
                              3)});
            table.addRow({"decode_pool_p99_mtpot_s",
                          formatDouble(
                              report.decodePool.p99MtpotSeconds,
                              3)});
            table.addRow({"handoff_queue_p99_s",
                          formatDouble(
                              report.handoffQueueP99Seconds, 3)});
            table.addRow({"migrated_kv_bytes",
                          formatCount(report.migratedKvBytes)});
            table.addRow({"migrated_requests",
                          formatCount(report.migratedRequests)});
            table.addRow({"handoff_shed_requests",
                          formatCount(report.handoffShedRequests)});
        }
        if (scenario.tenants > 0) {
            // Per-tenant breakdown keyed by the records' scheduling
            // class; tenants with no finished requests print 0.
            std::vector<std::vector<double>> ttfts(
                scenario.tenants);
            for (const metrics::RequestRecord &record :
                 report.requests) {
                if (record.cls.tenant < scenario.tenants) {
                    ttfts[record.cls.tenant].push_back(
                        ticksToSeconds(record.ttft()));
                }
            }
            for (std::size_t t = 0; t < scenario.tenants; ++t) {
                auto &samples = ttfts[t];
                std::sort(samples.begin(), samples.end());
                const double p99 = samples.empty()
                    ? 0.0
                    : samples[std::min(samples.size() - 1,
                                       (samples.size() * 99) /
                                           100)];
                const std::string prefix =
                    "tenant" + std::to_string(t);
                table.addRow({prefix + "_finished",
                              formatCount(static_cast<std::int64_t>(
                                  samples.size()))});
                table.addRow({prefix + "_p99_ttft_s",
                              formatDouble(p99, 3)});
            }
        }
        table.print(os);
        os << report.summary(sla) << "\n";
    }
    if (options.format == "json" || options.format == "both")
        metrics::writeSummaryJson(os, report, sla);
    if (!options.csvPath.empty())
        metrics::writeRequestsCsvFile(options.csvPath, report, sla);
}

} // namespace cli
} // namespace lightllm
