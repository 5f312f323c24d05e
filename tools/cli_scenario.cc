#include "cli_scenario.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "sim/sharded_sim_context.hh"
#include "sim/sim_context.hh"
#include "stats/percentile.hh"
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
 *  and signs ("-1" would silently wrap through std::strtoull). */
bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return *end == '\0' && errno != ERANGE;
}

/** Non-finite values are rejected: NaN slips through every range
 *  comparison and infinity overflows the tick conversions. */
bool
parseDouble(const char *text, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && errno != ERANGE &&
        std::isfinite(out);
}

/** Bounds of the open intervals (0, ...) and [..., 1). */
constexpr double kAboveZero =
    std::numeric_limits<double>::denorm_min();
constexpr double kBelowOne =
    1.0 - std::numeric_limits<double>::epsilon() / 2;

/** Parse a comma-separated share list ("0.8,0.2"): entries of at
 *  least `min` with a positive total. */
bool
parseShares(const std::string &text, double min,
            std::vector<double> &shares)
{
    double total = 0.0;
    for (const std::string &field : splitString(text, ',')) {
        double share = 0.0;
        if (!parseDouble(std::string(trimString(field)).c_str(),
                         share) ||
            share < min)
            return false;
        shares.push_back(share);
        total += share;
    }
    return total > 0.0;
}

/** A name a flag accepts, and what it maps to. */
template <typename T>
struct Named
{
    const char *name;
    T value;
};

/** The value of `name` in `table`; throws naming `what` when the
 *  name is unknown (parsing rejects it first, but programmatic
 *  callers skip the parse). */
template <typename T, std::size_t N>
T
lookup(const Named<T> (&table)[N], std::string_view name,
       const char *what)
{
    for (const Named<T> &entry : table)
        if (name == entry.name)
            return entry.value;
    throw std::invalid_argument(std::string("unknown ") + what +
                                ": " + std::string(name));
}

/** A flag's name table, whatever its value type. */
struct NameTable
{
    /** Whether `text` is one of the names; allocation-free, since
     *  parsing checks every name flag. */
    bool (*contains)(std::string_view text);

    /** "a | b | c", for --help and the error hint. */
    std::string (*list)();
};

/** The NameTable of the `Named` table `Table`. */
template <const auto &Table>
constexpr NameTable kNameTable{
    [](std::string_view text) {
        for (const auto &entry : Table)
            if (text == entry.name)
                return true;
        return false;
    },
    [] {
        std::string names;
        for (const auto &entry : Table)
            names += std::string(names.empty() ? "" : " | ") + entry.name;
        return names;
    }};

/** A text-only dataset generator as a kWorkloads maker. */
template <workload::Dataset (*Make)(std::size_t, std::uint64_t)>
workload::Dataset
textOnly(std::size_t n, std::uint64_t seed, TokenCount)
{
    return Make(n, seed);
}

constexpr Named<workload::Dataset (*)(
    std::size_t n, std::uint64_t seed, TokenCount image_tokens)>
    kWorkloads[] = {
    {"sharegpt", textOnly<workload::makeShareGpt>},
    {"sharegpt-o1", textOnly<workload::makeShareGptO1>},
    {"dist1", textOnly<workload::makeDistribution1>},
    {"dist2", textOnly<workload::makeDistribution2>},
    {"dist3", textOnly<workload::makeDistribution3>},
    {"textvqa",
     [](std::size_t n, std::uint64_t seed, TokenCount image_tokens) {
         return workload::makeTextVqaLike(n, image_tokens, seed);
     }},
    {"trace-conversation", textOnly<workload::makeConversationTrace>},
    {"trace-api", textOnly<workload::makeApiTrace>},
    {"trace-code", textOnly<workload::makeCodeCompletionTrace>},
    {"trace-longdoc", textOnly<workload::makeLongDocTrace>},
};

using core::SchedulerConfig;

constexpr Named<SchedulerConfig (*)(const CliOptions &)>
    kSchedulers[] = {
    {"past_future",
     [](const CliOptions &options) {
         SchedulerConfig config = SchedulerConfig::pastFutureDefault(
             options.reservedRatio);
         config.pastFuture.windowSize = options.windowSize;
         return config;
     }},
    {"aggressive",
     [](const CliOptions &options) {
         return SchedulerConfig::aggressive(options.watermark);
     }},
    {"conservative",
     [](const CliOptions &options) {
         return SchedulerConfig::conservative(options.overcommit);
     }},
    {"oracle",
     [](const CliOptions &) { return SchedulerConfig::oracle(); }},
};

constexpr Named<model::ModelSpec (*)()> kModels[] = {
    {"llama2-7b", model::ModelSpec::llama2_7b},
    {"llama2-13b", model::ModelSpec::llama2_13b},
    {"llama2-70b", model::ModelSpec::llama2_70b},
    {"qwen-vl-chat", model::ModelSpec::qwenVlChat},
    {"llava15-7b", model::ModelSpec::llava15_7b},
    {"llava15-13b", model::ModelSpec::llava15_13b},
};

constexpr Named<model::HardwareSpec (*)()> kHardware[] = {
    {"a100-80g", model::HardwareSpec::a100_80g},
    {"h800", model::HardwareSpec::h800},
    {"rtx4090", model::HardwareSpec::rtx4090},
    {"a30", model::HardwareSpec::a30},
};

constexpr Named<bool> kPrefixCacheModes[] = {{"on", true},
                                              {"off", false}};

constexpr Named<core::VictimOrder> kEvictionPolicies[] = {
    {"lifo", core::VictimOrder::NewestFirst},
    {"fifo", core::VictimOrder::OldestFirst},
};

constexpr Named<engine::EvictionMode> kEvictionModes[] = {
    {"recompute", engine::EvictionMode::Recompute},
    {"swap", engine::EvictionMode::Swap},
};

constexpr Named<core::QueuePolicyKind> kQueuePolicies[] = {
    {"fcfs", core::QueuePolicyKind::Fcfs},
    {"sjf", core::QueuePolicyKind::PredictedSjf},
    {"edf", core::QueuePolicyKind::Edf},
    {"priority", core::QueuePolicyKind::Priority},
};

constexpr Named<cluster::RoutingPolicy> kRoutingPolicies[] = {
    {"round-robin", cluster::RoutingPolicy::RoundRobin},
    {"least-outstanding", cluster::RoutingPolicy::LeastOutstandingTokens},
    {"future-memory", cluster::RoutingPolicy::FutureMemory},
    {"prefix-affinity", cluster::RoutingPolicy::PrefixAffinity},
    {"prefill-load", cluster::RoutingPolicy::PrefillLoad},
};

/** A ScalePolicyFactory over the policy's public constructor. */
template <typename Policy>
std::unique_ptr<autoscale::ScalePolicy>
buildScalePolicy(double slo_target)
{
    return std::make_unique<Policy>(slo_target);
}

constexpr Named<ScalePolicyFactory> kScalePolicies[] = {
    {"reactive", buildScalePolicy<autoscale::ReactiveThresholdPolicy>},
    {"predictive", buildScalePolicy<autoscale::PredictiveFutureMemoryPolicy>},
};

constexpr Named<autoscale::ShedPolicy> kShedPolicies[] = {
    {"never", autoscale::ShedPolicy::Never},
    {"overload", autoscale::ShedPolicy::Overload},
};

constexpr Named<trace::TraceDetail> kTraceDetails[] = {
    {"off", trace::TraceDetail::Off},
    {"requests", trace::TraceDetail::Requests},
    {"steps", trace::TraceDetail::Steps},
    {"full", trace::TraceDetail::Full},
};

/** The report sections a --format prints: {table, JSON}. */
constexpr Named<std::pair<bool, bool>> kFormats[] = {
    {"table", {true, false}},
    {"json", {false, true}},
    {"both", {true, true}},
};

model::HardwareSpec
makeHardwareSpec(const std::string &name, int tensor_parallel)
{
    model::HardwareSpec spec = lookup(kHardware, name, "hardware")();
    if (tensor_parallel > 1)
        spec = spec.withTensorParallel(tensor_parallel);
    return spec;
}

metrics::SlaSpec
makeSla(const CliOptions &options, const model::ModelSpec &spec)
{
    // By model size: the paper's 70B SLA above its 13B models.
    metrics::SlaSpec sla =
        spec.numParams > model::ModelSpec::llama2_13b().numParams
        ? metrics::SlaSpec::large70b()
        : metrics::SlaSpec::small7b13b();
    if (options.ttftLimitSeconds > 0.0)
        sla.ttftLimit = secondsToTicks(options.ttftLimitSeconds);
    if (options.mtpotLimitSeconds > 0.0)
        sla.mtpotLimit = secondsToTicks(options.mtpotLimitSeconds);
    return sla;
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
        if (!parseShares(options.tenantWeights, kAboveZero,
                         mix.weights)) {
            throw std::invalid_argument(
                "bad tenant weights: " + options.tenantWeights);
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
            if (!parseUnsigned(entry.c_str() + colon + 1, count) ||
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
    config.splitFuseChunk = options.splitFuse ? 512 : 0;
    config.maxBatchSize = options.maxBatchSize;
    config.warmupRequests = options.warmupRequests;

    config.prefixCache = lookup(
        kPrefixCacheModes, options.prefixCache, "prefix-cache mode");
    config.evictionPolicy = lookup(
        kEvictionPolicies, options.evictionPolicy, "eviction policy");
    config.evictionMode = lookup(kEvictionModes, options.evictionMode,
                                 "eviction mode");
    return config;
}

/**
 * The values a flag accepts: numbers in [min, max] (integers must
 * also fit their field), or with `shares` set, a share list whose
 * entries are at least `min`; with `wholeTick` set, seconds that
 * are 0 (unset) or round to at least one tick.
 */
struct Domain
{
    double min = 0.0;
    double max = std::numeric_limits<double>::infinity();
    bool shares = false;
    bool wholeTick = false;
};

constexpr Domain kPositive{.min = 1};

constexpr Domain kSeconds{.max = kMaxSpanSeconds};

/** Seconds where 0 means unset, so a positive value must not round
 *  to 0 ticks (an SLA limit of 0, or no run limit at all). */
constexpr Domain kTickSeconds{.max = kMaxSpanSeconds, .wholeTick = true};

/** One command-line flag: parsing, --help and the audit read it. */
struct Flag
{
    /** --help heading opening a section; null continues the one
     *  above. */
    const char *section;
    const char *name;

    /** Value placeholder in --help; null for a boolean flag. */
    const char *metavar;

    /** Store the flag's value into its CliOptions field; false when
     *  the text does not parse or lies outside `domain`. */
    bool (*set)(const Flag &flag, const char *text,
                CliOptions &options);
    const char *help;
    Domain domain = {};

    /** The flag's name table, if its value is a name: parsing
     *  accepts only its names, and --help lists them ahead of the
     *  help text. */
    const NameTable *names = nullptr;

    /** Short spelling, if any. */
    const char *alias = nullptr;
};

/** Setter of the CliOptions field `Field`, parsed by its type. */
template <auto Field>
bool
store(const Flag &flag, const char *text, CliOptions &options)
{
    auto &slot = options.*Field;
    using T = std::remove_reference_t<decltype(slot)>;
    const Domain &domain = flag.domain;
    if constexpr (std::is_same_v<T, bool>) {
        slot = true;
    } else if constexpr (std::is_same_v<T, std::string>) {
        std::vector<double> shares;
        if ((flag.names != nullptr && !flag.names->contains(text)) ||
            (domain.shares && !parseShares(text, domain.min, shares)))
            return false;
        slot = text;
    } else if constexpr (std::is_floating_point_v<T>) {
        double value = 0.0;
        if (!parseDouble(text, value) || value < domain.min ||
            value > domain.max ||
            (domain.wholeTick && value > 0.0 &&
             secondsToTicks(value) == 0))
            return false;
        slot = value;
    } else {
        std::uint64_t value = 0;
        if (!parseUnsigned(text, value) ||
            value > static_cast<std::uint64_t>(
                        std::numeric_limits<T>::max()) ||
            static_cast<double>(value) < domain.min ||
            static_cast<double>(value) > domain.max)
            return false;
        slot = static_cast<T>(value);
    }
    return true;
}

using O = CliOptions;

/** Every flag pfs_cli accepts, in --help order. */
constexpr Flag kFlags[] = {
    {"Workload:", "--workload", "NAME", store<&O::workload>, nullptr,
     {}, &kNameTable<kWorkloads>},
    {nullptr, "--requests", "N", store<&O::requests>,
     "dataset size (default 512)", kPositive},
    {nullptr, "--seed", "N", store<&O::seed>,
     "RNG seed (default 42)"},
    {nullptr, "--clients", "N", store<&O::clients>,
     "closed-loop client count (default 32)"},
    {nullptr, "--rate", "R", store<&O::poissonRate>,
     "open-loop Poisson arrivals/sec (overrides closed loop)"},
    {nullptr, "--rate-schedule", "S", store<&O::rateSchedule>,
     "open-loop time-varying arrivals: const:R | steps:RxS,... | "
     "spike:BASE,PEAK,AT,DUR | diurnal:BASE,AMP,PERIOD[,STEPS "
     "[,CYCLES]] (seconds; exclusive with --rate)"},
    {nullptr, "--think-time", "S", store<&O::thinkSeconds>,
     "closed-loop (and per-turn session) think time, seconds",
     kSeconds},
    {nullptr, "--trace-replay", "PATH", store<&O::traceReplay>,
     "replay a dataset CSV carrying an arrival_us column at its "
     "recorded timestamps (replaces --workload / --requests and the "
     "load generators)"},
    {"Multi-turn sessions (replaces --workload when set):",
     "--sessions", "N", store<&O::sessions>, "concurrent "
     "conversations (0 = off); every turn shares the system prompt "
     "and prepends its session history"},
    {nullptr, "--turns", "N", store<&O::turns>,
     "requests per session (default 4)", kPositive},
    {nullptr, "--system-prompt-tokens", "N",
     store<&O::systemPromptTokens>,
     "shared system prompt length (512)", kPositive},
    {"Scheduler:", "--scheduler", "NAME", store<&O::scheduler>,
     nullptr, {}, &kNameTable<kSchedulers>},
    {nullptr, "--reserved-ratio", "F", store<&O::reservedRatio>,
     "past_future reserve (default 0.03)", {.max = kBelowOne}},
    {nullptr, "--window-size", "N", store<&O::windowSize>,
     "past_future history window (1000)", kPositive},
    {nullptr, "--watermark", "F", store<&O::watermark>, "aggressive "
     "watermark (default 0.95)", {.min = kAboveZero, .max = 1}},
    {nullptr, "--overcommit", "F", store<&O::overcommit>,
     "conservative multiplier (default 1.0)", {.min = kAboveZero}},
    {nullptr, "--queue-policy", "P", store<&O::queuePolicy>,
     "(queue ordering; default fcfs)", {},
     &kNameTable<kQueuePolicies>},
    {nullptr, "--priority-mix", "L", store<&O::priorityMix>, "class "
     "shares, lowest first, e.g. 0.8,0.2 = 20% priority-1 requests",
     {.shares = true}},
    {"Multi-tenant isolation:", "--tenants", "N", store<&O::tenants>,
     "tenants drawing the workload's requests, ids 0..N-1 (default 0 "
     "= single tenant)"},
    {nullptr, "--tenant-zipf", "S", store<&O::tenantZipf>, "Zipf "
     "exponent of the tenant traffic shares (default 0 = uniform)"},
    {nullptr, "--tenant-weights", "L", store<&O::tenantWeights>,
     "explicit tenant shares, e.g. 8,1,1 (count = --tenants; "
     "exclusive with --tenant-zipf)",
     {.min = kAboveZero, .shares = true}},
    {nullptr, "--tenant-tree", nullptr, store<&O::tenantTree>,
     "schedule through the per-tenant fair tree (weighted fair "
     "queueing over tenants, --queue-policy within one; also makes "
     "overload shedding fairness-aware). Off = flat bit-exact "
     "pipeline"},
    {"Platform:", "--model", "NAME", store<&O::model>, nullptr, {},
     &kNameTable<kModels>},
    {nullptr, "--hardware", "NAME", store<&O::hardware>, nullptr, {},
     &kNameTable<kHardware>},
    {nullptr, "--tp", "N", store<&O::tensorParallel>,
     "tensor-parallel degree (default 1)", kPositive},
    {"Fleet (exact event-driven co-simulation when N > 1):",
     "--instances", "N", store<&O::instances>,
     "fleet size (default 1)", kPositive},
    {nullptr, "--routing", "P", store<&O::routing>, "(default "
     "future-memory; prefix-affinity: sticky sessions, turns follow "
     "their cached prefix; prefill-load: least pending prefill "
     "work)", {}, &kNameTable<kRoutingPolicies>},
    {nullptr, "--platform-mix", "L", store<&O::platformMix>,
     "per-instance hardware, name[:count] entries summing to N, e.g. "
     "a100-80g:2,a30:2 (default: --hardware everywhere)"},
    {nullptr, "--drain-at", "S", store<&O::drainAtSeconds>, "drain "
     "instance 0 after S simulated seconds; its queued requests "
     "re-dispatch through the router", kSeconds},
    {nullptr, "--sim-threads", "K", store<&O::simThreads>, "shard "
     "the fleet's engines across K compute threads (default 1); "
     "results are bit-identical to the single-threaded run (works "
     "with --autoscale and --disagg too)", kPositive},
    {"Disaggregated prefill/decode (KV migration over a modeled "
     "interconnect; exclusive with --instances/--routing):",
     "--disagg", nullptr, store<&O::disagg>, "split the fleet into a "
     "prefill pool (routed by pending prefill load) and a decode "
     "pool (future-memory); finished prefill KV migrates through a "
     "bounded handoff queue"},
    {nullptr, "--prefill-instances", "N", store<&O::prefillInstances>,
     "prefill pool size (default 1)"},
    {nullptr, "--decode-instances", "N", store<&O::decodeInstances>,
     "decode pool size (default 1)"},
    {nullptr, "--handoff-depth", "N", store<&O::handoffDepth>,
     "handoff queue bound; a transfer finding it full is shed "
     "(default 64)"},
    {nullptr, "--link-gbps", "G", store<&O::linkGbps>, "interconnect "
     "bandwidth, GB/s (default: the hardware's interconnect "
     "profile)"},
    {nullptr, "--link-latency", "S", store<&O::linkLatencySeconds>,
     "fixed per-transfer latency, seconds (default: hardware "
     "profile)", kSeconds},
    {"Elastic autoscaling (SLA -> capacity control loop; with "
     "--disagg, one independent loop per pool):", "--autoscale",
     nullptr, store<&O::autoscale>, "close the loop: "
     "provision/retire instances from SLO attainment and fleet-wide "
     "future-memory forecasts (works from --instances 1 up)"},
    {nullptr, "--min-instances", "N", store<&O::minInstances>,
     "scale-down floor (default 1)"},
    {nullptr, "--max-instances", "N", store<&O::maxInstances>,
     "scale-up ceiling (default 8)"},
    {nullptr, "--provision-delay", "S",
     store<&O::provisionDelaySeconds>, "cold-start delay before a "
     "new instance joins the router (10)", kSeconds},
    {nullptr, "--scale-policy", "P", store<&O::scalePolicy>,
     "(default predictive): reactive is threshold+hysteresis on "
     "observed attainment, predictive the fleet-wide future-memory "
     "forecast", {}, &kNameTable<kScalePolicies>},
    {nullptr, "--scale-slo-target", "F", store<&O::scaleSloTarget>,
     "attainment target in (0, 1] (default 0.9)",
     {.min = kAboveZero, .max = 1}},
    {nullptr, "--shed-policy", "P", store<&O::shedPolicy>, "(default "
     "never); overload: at max scale, reject arrivals that would "
     "push outstanding work past the shed bound instead of queueing "
     "without limit", {}, &kNameTable<kShedPolicies>},
    {"SLA (defaults follow the paper, by model size):",
     "--ttft-limit", "S", store<&O::ttftLimitSeconds>,
     "TTFT limit, seconds", kTickSeconds},
    {nullptr, "--mtpot-limit", "S", store<&O::mtpotLimitSeconds>,
     "max time-per-output-token, seconds", kTickSeconds},
    {"Engine:", "--block-size", "N", store<&O::blockSize>,
     "KV block size (default 16)", kPositive},
    {nullptr, "--prefix-cache", "M", store<&O::prefixCache>,
     "(default off): shared-prefix KV reuse with copy-on-write "
     "blocks; admission charges and prefills only the uncached "
     "prompt suffix", {}, &kNameTable<kPrefixCacheModes>},
    {nullptr, "--split-fuse", nullptr, store<&O::splitFuse>,
     "enable chunked prefill"},
    {nullptr, "--max-batch", "N", store<&O::maxBatchSize>,
     "running-batch cap (0 = unlimited)"},
    {nullptr, "--eviction-policy", "P", store<&O::evictionPolicy>,
     nullptr, {}, &kNameTable<kEvictionPolicies>},
    {nullptr, "--eviction-mode", "M", store<&O::evictionMode>,
     nullptr, {}, &kNameTable<kEvictionModes>},
    {nullptr, "--warmup", "N", store<&O::warmupRequests>,
     "discard metrics of first N requests (single instance only; N "
     "must be below the requests the run finishes)"},
    {"Run limits / output:", "--max-requests", "N",
     store<&O::maxFinishedRequests>,
     "stop after N finished requests"},
    {nullptr, "--max-seconds", "S", store<&O::maxSimSeconds>,
     "stop after S simulated seconds", kTickSeconds},
    {nullptr, "--format", "F", store<&O::format>, "(default table)",
     {}, &kNameTable<kFormats>},
    {nullptr, "--csv", "PATH", store<&O::csvPath>,
     "also write per-request CSV"},
    {"Flight recorder (read-only: the RunReport is byte-identical "
     "with tracing on or off):", "--trace-out", "PATH",
     store<&O::traceOut>, "write a Chrome trace-event JSON (open in "
     "Perfetto / chrome://tracing) plus a per-request timeline at "
     "PATH.requests.csv"},
    {nullptr, "--trace-detail", "L", store<&O::traceDetail>,
     "(requests: lifecycle spans and decision instants, the default "
     "when --trace-out is set; steps: + per-iteration engine "
     "counters; full: + per-shard wall-clock profiling under "
     "--sim-threads)", {}, &kNameTable<kTraceDetails>},
    {nullptr, "--trace-limit", "N", store<&O::traceLimit>, "per-sink "
     "event ring capacity (default 65536); the oldest events drop "
     "when a ring wraps", kPositive},
    {nullptr, "--help", nullptr, store<&O::showHelp>,
     "show this reference", {}, nullptr, "-h"},
};

/** A disagg pool's starting size: 0 (unset) means one instance. */
std::size_t
poolSize(std::size_t instances)
{
    return instances == 0 ? 1 : instances;
}

/** Rules that span flags; single-flag domains live in the rows. */
std::string
validateOptions(const CliOptions &options)
{
    if (options.sessions > 0) {
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
            const std::size_t prefill = poolSize(options.prefillInstances);
            const std::size_t decode = poolSize(options.decodeInstances);
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
    if (options.clients == 0 && options.poissonRate <= 0.0 &&
        options.rateSchedule.empty() && options.traceReplay.empty())
        return "--clients must be positive in closed-loop mode";
    if (options.simThreads > 1 && options.instances < 2 &&
        !options.autoscale && !options.disagg)
        return "--sim-threads needs a co-simulated fleet "
               "(--instances >= 2, --autoscale, or --disagg); a "
               "lone engine has no fleet to shard";
    // Only a single engine's loop stops at run limits; a cluster
    // would silently ignore them. Warmup is counted per engine, so
    // a fleet would drop N requests per instance (and the two disagg
    // pools different ones).
    if (options.instances > 1 || options.autoscale ||
        options.disagg) {
        if (options.maxFinishedRequests > 0 ||
            options.maxSimSeconds > 0.0)
            return "run limits (--max-requests/--max-seconds) are "
                   "single-instance only";
        if (options.warmupRequests > 0)
            return "--warmup is single-instance only (each engine "
                   "of a fleet would discard its own first N "
                   "requests)";
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
    if (!options.traceDetail.empty() && options.traceDetail != "off" &&
        options.traceOut.empty())
        return "--trace-detail needs --trace-out";
    if (options.traceLimit > 0 && options.traceOut.empty())
        return "--trace-limit needs --trace-out";
    return "";
}

constexpr std::size_t kUsageWidth = 70;
constexpr std::size_t kHelpColumn = 22;

/** Print `line` padded to `indent` (or on its own line when wider),
 *  then `text` wrapped to kUsageWidth at that indent. */
void
printWrapped(std::ostream &os, std::string line, std::size_t indent,
             const std::string &text)
{
    if (!line.empty() && line.size() >= indent) {
        os << line << '\n';
        line.clear();
    }
    line.resize(indent, ' ');
    std::istringstream words(text);
    for (std::string word; words >> word;) {
        if (line.size() > indent &&
            line.size() + 1 + word.size() > kUsageWidth) {
            os << line << '\n';
            line.assign(indent, ' ');
        }
        line += (line.size() > indent ? " " : "") + word;
    }
    os << line << '\n';
}

} // namespace

std::string
parseCliArgs(int argc, const char *const *argv, CliOptions &options)
{
    for (int i = 1; i < argc; ++i) {
        // Accept both "--flag value" and "--flag=value".
        std::string_view arg = argv[i];
        const char *value = nullptr;
        const std::size_t eq = arg.find('=');
        if (eq != std::string_view::npos) {
            value = argv[i] + eq + 1;
            arg = arg.substr(0, eq);
        }
        const Flag *flag = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [arg](const Flag &f) {
                return arg == f.name ||
                    (f.alias != nullptr && arg == f.alias);
            });
        if (flag == std::end(kFlags))
            return "unknown flag: " + std::string(arg);
        const bool boolean = flag->metavar == nullptr;
        if (boolean && value != nullptr)
            return std::string(arg) + " takes no value";
        if (!boolean && value == nullptr) {
            if (i + 1 >= argc)
                return "missing value for " + std::string(arg);
            value = argv[++i];
        }
        if (!flag->set(*flag, boolean ? "" : value, options)) {
            const std::string hint = flag->names != nullptr
                ? " (use " + flag->names->list() + ")" : "";
            return "bad value for " + std::string(arg) + ": " +
                value + hint;
        }
        if (options.showHelp)
            return "";
    }
    return validateOptions(options);
}

void
printCliUsage(std::ostream &os)
{
    os << "pfs_cli — run one serving scenario and report metrics\n";
    for (const Flag &flag : kFlags) {
        if (flag.section != nullptr) {
            os << '\n';
            printWrapped(os, "", 0, flag.section);
        }
        std::string lead = std::string("  ") + flag.name;
        if (flag.alias != nullptr)
            lead += std::string(", ") + flag.alias;
        if (flag.metavar != nullptr)
            lead += std::string(" ") + flag.metavar;
        // printWrapped collapses the spaces of absent parts.
        const std::string text =
            (flag.names != nullptr ? flag.names->list() : "") + " " +
            (flag.help != nullptr ? flag.help : "");
        printWrapped(os, std::move(lead), kHelpColumn, text);
    }
}

namespace {

/**
 * The assembly both assembleScenario overloads share, around a
 * dataset already built (the options were validated): the priority
 * and tenant mixes, cold-start seeding from the dataset's cap, and
 * every non-workload setting.
 */
Scenario
assembleAround(const CliOptions &options, workload::Dataset dataset)
{
    const model::ModelSpec model_spec =
        lookup(kModels, options.model, "model")();

    const bool session_mode = options.sessions > 0;
    workload::SessionWorkloadConfig session_config;
    if (session_mode) {
        session_config.numSessions = options.sessions;
        session_config.turnsPerSession = options.turns;
        session_config.systemPromptTokens =
            options.systemPromptTokens;
        session_config.thinkTime =
            secondsToTicks(options.thinkSeconds);
        session_config.seed = options.seed;
    }

    // A warmup that swallows every request the run finishes would
    // leave them all reported as measured.
    if (options.warmupRequests > 0) {
        std::size_t finishes = session_mode
            ? options.sessions * options.turns
            : dataset.requests.size();
        if (options.maxFinishedRequests > 0)
            finishes = std::min(finishes, options.maxFinishedRequests);
        if (options.warmupRequests >= finishes) {
            throw std::invalid_argument(
                "--warmup " + std::to_string(options.warmupRequests) +
                " must be below the " + std::to_string(finishes) +
                " requests the run finishes");
        }
    }

    std::vector<double> shares;
    if (!options.priorityMix.empty()) {
        if (!parseShares(options.priorityMix, 0.0, shares)) {
            throw std::invalid_argument("bad priority mix: " +
                                        options.priorityMix);
        }
        workload::assignPriorityMix(
            dataset, shares, options.seed ^ 0x9e3779b97f4a7c15ull);
    }

    const workload::TenantMix tenant_mix = makeTenantMix(options);
    if (options.tenants > 0) {
        // A distinct seed stream so the tenant draw composes with
        // (not perturbs) the priority draw.
        workload::assignTenantMix(
            dataset, tenant_mix, options.seed ^ 0x517cc1b727220a95ull);
    }

    const metrics::SlaSpec sla = makeSla(options, model_spec);

    core::SchedulerConfig scheduler_config =
        lookup(kSchedulers, options.scheduler, "scheduler")(options);
    // Cold-start seeding with the dataset's service cap.
    scheduler_config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    scheduler_config.queue.kind =
        lookup(kQueuePolicies, options.queuePolicy, "queue policy");
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
            workload::tenantTreeWeights(tenant_mix);
    }

    engine::RunLimits limits;
    limits.maxFinishedRequests = options.maxFinishedRequests;
    if (options.maxSimSeconds > 0.0)
        limits.maxTicks = secondsToTicks(options.maxSimSeconds);

    Scenario scenario{
        .dataset = std::move(dataset),
        .sessionMode = session_mode,
        .sessionConfig = session_config,
        .schedulerConfig = scheduler_config,
        .perf = model::PerfModel(
            model_spec, makeHardwareSpec(options.hardware,
                                         options.tensorParallel)),
        .sla = sla,
        .engineConfig = makeEngineConfig(options),
        .limits = limits,
        .clients = options.clients,
        .poissonRate = options.poissonRate,
        .thinkTime = secondsToTicks(options.thinkSeconds),
        .seed = options.seed,
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
        config.shedPolicy =
            lookup(kShedPolicies, options.shedPolicy, "shed policy");
        if (options.tenants > 0) {
            // Fairness-aware shedding: under overload the tenants
            // over their traffic share absorb the rejections.
            config.tenantShares = tenant_mix.shares();
        }
        scenario.scalePolicy =
            lookup(kScalePolicies, options.scalePolicy, "scale policy");
    }

    if (!options.routing.empty()) {
        scenario.routing = lookup(kRoutingPolicies, options.routing,
                                  "routing policy");
    }
    if ((options.instances > 1 || options.autoscale) &&
        !options.disagg) {
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
    // Every engine's KV arena must hold one block. A fleet builds
    // from fleetPerfs; a lone engine, the disagg pools and
    // autoscale clones from the base platform.
    TokenCount capacity =
        scenario.fleetPerfs.empty() || options.autoscale
        ? scenario.perf.tokenCapacity()
        : std::numeric_limits<TokenCount>::max();
    for (const model::PerfModel &perf : scenario.fleetPerfs)
        capacity = std::min(capacity, perf.tokenCapacity());
    if (options.blockSize > capacity) {
        throw std::invalid_argument(
            "--block-size " + std::to_string(options.blockSize) +
            " exceeds the KV capacity of " + std::to_string(capacity) +
            " tokens");
    }
    scenario.tenants = options.tenants;
    scenario.traceReplay = !options.traceReplay.empty();
    scenario.simThreads =
        static_cast<std::uint32_t>(options.simThreads);

    if (options.disagg) {
        scenario.disagg = true;
        scenario.prefillInstances = poolSize(options.prefillInstances);
        scenario.decodeInstances = poolSize(options.decodeInstances);
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
        // The slowest transfer, one decode engine's whole KV plus
        // the fixed latency, must land inside the clock's range.
        const TokenCount kv = scenario.perf.tokenCapacity();
        if (static_cast<double>(disagg::migrationBytes(config, kv)) /
                    config.linkBandwidth +
                ticksToSeconds(config.transferLatency) >
            kMaxSpanSeconds) {
            std::ostringstream error;
            error << "--link-gbps " << config.linkBandwidth / 1e9
                  << " is too slow: moving one decode engine's " << kv
                  << "-token KV takes past the " << kMaxSpanSeconds
                  << " s clock bound";
            throw std::invalid_argument(error.str());
        }
    }

    if (!options.traceOut.empty()) {
        scenario.traceOut = options.traceOut;
        scenario.traceDetail = lookup(
            kTraceDetails,
            options.traceDetail.empty() ? "requests"
                                        : options.traceDetail,
            "trace detail");
        if (options.traceLimit > 0)
            scenario.traceLimit = options.traceLimit;
    }
    return scenario;
}

} // namespace

Scenario
assembleScenario(const CliOptions &options)
{
    // Programmatic callers skip parseCliArgs; hold them to the same
    // cross-flag rules.
    if (const std::string error = validateOptions(options);
        !error.empty())
        throw std::invalid_argument(error);

    workload::Dataset dataset;
    if (options.sessions > 0) {
        // The dataset stands in for naming and generation caps so
        // the scheduler-seeding path is shared.
        dataset.name = "sessions(" +
            std::to_string(options.sessions) + "x" +
            std::to_string(options.turns) + ")";
        dataset.maxNewTokens = workload::kSessionMaxNewTokens;
    } else if (!options.traceReplay.empty()) {
        dataset = workload::readDatasetCsvFile(options.traceReplay);
        for (const workload::RequestSpec &spec : dataset.requests) {
            if (spec.arrivalTick < 0) {
                throw std::invalid_argument(
                    "--trace-replay dataset " + options.traceReplay +
                    ": request " + std::to_string(spec.id) +
                    " has no arrival_us timestamp");
            }
        }
    } else {
        // textvqa's vision prefix follows the selected model
        // (Qwen-VL uses 256 image tokens, LLaVA 576); text-only
        // models fall back to the LLaVA-sized prefix.
        const TokenCount image_tokens =
            lookup(kModels, options.model, "model")().imageTokens;
        dataset = lookup(kWorkloads, options.workload, "workload")(
            options.requests, options.seed,
            image_tokens > 0 ? image_tokens : 576);
    }
    return assembleAround(options, std::move(dataset));
}

Scenario
assembleScenario(const CliOptions &options, workload::Dataset dataset)
{
    if (options.sessions > 0 || !options.traceReplay.empty()) {
        throw std::invalid_argument(
            "--sessions and --trace-replay name their own dataset; "
            "a caller's dataset replaces --workload/--requests");
    }
    if (const std::string error = validateOptions(options);
        !error.empty())
        throw std::invalid_argument(error);
    return assembleAround(options, std::move(dataset));
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
    if (scenario.hasRateSchedule || scenario.poissonRate > 0.0) {
        // Poisson arrivals are a constant schedule.
        const bool scheduled = scenario.hasRateSchedule;
        try {
            workload::submitScheduledArrivals(
                scenario.dataset, sink,
                scheduled ? scenario.rateSchedule
                          : workload::RateSchedule::constant(
                                scenario.poissonRate),
                scenario.seed);
        } catch (const std::invalid_argument &error) {
            throw std::invalid_argument(
                (scheduled ? "--rate-schedule: " : "--rate: ") +
                std::string(error.what()));
        }
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
    const auto scale_policy = [&scenario]() {
        return scenario.scalePolicy(scenario.autoscaleConfig.sloTarget);
    };

    if (!scenario.disagg && scenario.fleetPerfs.empty()) {
        // Single instance: the engine drives its own SimContext
        // (the only path run limits apply to); a lone engine has
        // no fleet to shard.
        const auto engine = make_engine(scenario.perf);
        if (recorder != nullptr)
            engine->attachTrace(recorder->createEngine("engine-0"));
        return driveLoad(
            scenario, *engine,
            [&](auto callback) { engine->setOnFinish(callback); },
            [&]() { return engine->run(scenario.limits); });
    }

    // A fleet borrows the run's clock. With --sim-threads K > 1 the
    // root is enrolled in a sharded executor before the fleet is
    // built: adoption (inside the cluster ctor) is what places each
    // engine on a worker shard. Its trace sinks follow the fleet's,
    // so the trace's pid layout is the same at every K.
    sim::SimContext root;
    std::unique_ptr<sim::ShardedSimContext> hub;
    if (scenario.simThreads > 1) {
        hub = std::make_unique<sim::ShardedSimContext>(
            root, scenario.simThreads);
    }

    if (scenario.disagg) {
        // Disaggregated fleet: the pools differ only in routing and
        // in the work the DisaggCluster hands them. One hub spans
        // both pools, so shard balancing covers the whole fleet.
        std::vector<std::unique_ptr<engine::ServingEngine>> prefill;
        for (std::size_t i = 0; i < scenario.prefillInstances; ++i)
            prefill.push_back(make_clone());
        std::vector<std::unique_ptr<engine::ServingEngine>> decode;
        for (std::size_t i = 0; i < scenario.decodeInstances; ++i)
            decode.push_back(make_clone());

        disagg::DisaggCluster cluster(std::move(prefill),
                                      std::move(decode),
                                      scenario.disaggConfig, root);
        if (recorder != nullptr) {
            cluster.attachTrace(recorder);
            if (hub)
                hub->attachTrace(recorder);
        }
        if (scenario.autoscale) {
            cluster.enableAutoscale(scenario.autoscaleConfig,
                                    scale_policy(), scale_policy(),
                                    make_clone);
        }
        return driveLoad(
            scenario, cluster,
            [&](auto callback) { cluster.setOnFinish(callback); },
            [&]() { return cluster.run(); });
    }

    // Fleet: engines co-simulate exactly on the shared context; the
    // router places every request.
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    engines.reserve(scenario.fleetPerfs.size());
    for (const model::PerfModel &perf : scenario.fleetPerfs)
        engines.push_back(make_engine(perf));
    cluster::ServingCluster fleet(std::move(engines), scenario.routing,
                                  root);
    if (recorder != nullptr) {
        fleet.setTraceRecorder(recorder);
        if (hub)
            hub->attachTrace(recorder);
    }
    if (scenario.drainAt > 0)
        fleet.scheduleDrain(0, scenario.drainAt);
    if (scenario.autoscale) {
        fleet.enableAutoscale(scenario.autoscaleConfig, scale_policy(),
                              make_clone);
    }
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
    const auto [print_table, print_json] =
        lookup(kFormats, options.format, "format");
    if (print_table) {
        const metrics::RunReport::LatencyDigest digest =
            report.latencyDigest();
        TextTable table({"metric", "value"});
        const auto row = [&table](std::string metric,
                                  std::string value) {
            table.addRow({std::move(metric), std::move(value)});
        };
        const auto count = [](auto n) {
            return formatCount(static_cast<std::int64_t>(n));
        };
        const auto seconds = [](double s) { return formatDouble(s, 3); };
        row("scheduler", report.schedulerName);
        row("workload", scenario.dataset.name);
        row("finished", count(report.numFinished));
        row("makespan_s",
            formatDouble(ticksToSeconds(report.makespan), 2));
        row("throughput_tok_s",
            formatDouble(report.throughputTokensPerSec(), 1));
        row("goodput_tok_s",
            formatDouble(report.goodputTokensPerSec(sla), 1));
        row("sla_compliance",
            formatPercent(report.slaCompliantFraction(sla)));
        row("mean_ttft_s", seconds(digest.meanTtft));
        row("p50_ttft_s", seconds(digest.ttftPercentile(0.50)));
        row("p90_ttft_s", seconds(digest.ttftPercentile(0.90)));
        row("p99_ttft_s", seconds(digest.ttftPercentile(0.99)));
        row("p50_mtpot_s", seconds(digest.mtpotPercentile(0.50)));
        row("p90_mtpot_s", seconds(digest.mtpotPercentile(0.90)));
        row("p99_mtpot_s", seconds(digest.mtpotPercentile(0.99)));
        row("avg_batch_size", formatDouble(report.avgBatchSize, 1));
        row("eviction_events", count(report.evictionEvents));
        row("avg_consumed_mem", formatPercent(report.avgConsumedMemory));
        if (scenario.engineConfig.prefixCache) {
            row("prefix_hit_rate", formatPercent(report.prefixHitRate()));
            row("prefix_hit_tokens", count(report.prefixHitTokens));
        }
        const auto instance_rows = [&] {
            row("instance_seconds",
                formatDouble(report.instanceSeconds, 1));
            row("instance_cost", formatDouble(report.instanceCost, 4));
        };
        if (scenario.autoscale) {
            row("shed_requests", count(report.shedRequests));
            row("shed_rate", formatPercent(report.shedRate()));
            instance_rows();
            row("peak_instances", count(report.peakInstances));
            row("scale_up_events", count(report.scaleUpEvents));
            row("scale_down_events", count(report.scaleDownEvents));
        }
        if (report.disaggregated) {
            if (!scenario.autoscale)
                instance_rows();
            for (const auto &[pool, summary] :
                 {std::pair{"prefill_pool", &report.prefillPool},
                  std::pair{"decode_pool", &report.decodePool}}) {
                const std::string prefix = pool;
                row(prefix + "_finished", count(summary->finished));
                row(prefix + "_p99_ttft_s",
                    seconds(summary->p99TtftSeconds));
                row(prefix + "_p99_mtpot_s",
                    seconds(summary->p99MtpotSeconds));
            }
            row("handoff_queue_p99_s",
                seconds(report.handoffQueueP99Seconds));
            row("migrated_kv_bytes", count(report.migratedKvBytes));
            row("migrated_requests", count(report.migratedRequests));
            row("handoff_shed_requests",
                count(report.handoffShedRequests));
        }
        if (scenario.tenants > 0) {
            // Per-tenant breakdown keyed by the records' scheduling
            // class; tenants with no finished requests print 0.
            std::vector<std::vector<double>> ttfts(scenario.tenants);
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
                const std::string prefix = "tenant" + std::to_string(t);
                row(prefix + "_finished", count(samples.size()));
                row(prefix + "_p99_ttft_s",
                    seconds(stats::percentileSorted(samples, 0.99)));
            }
        }
        table.print(os);
        os << report.summary(sla) << "\n";
    }
    if (print_json)
        metrics::writeSummaryJson(os, report, sla);
    if (!options.csvPath.empty() &&
        !metrics::writeRequestsCsvFile(options.csvPath, report,
                                       sla)) {
        throw std::runtime_error("cannot write report file: " +
                                 options.csvPath);
    }
}

} // namespace cli
} // namespace lightllm
