/**
 * @file
 * Coverage of the pfs_cli flag-parsing and scenario-assembly path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_scenario.hh"
#include "metrics/report_io.hh"
#include "model/hardware_spec.hh"
#include "model/model_spec.hh"
#include "test_fixtures.hh"
#include "workload/datasets.hh"
#include "workload/trace_io.hh"

namespace lightllm {
namespace {

using testfx::fnv1a;

std::string
parse(std::vector<const char *> args, cli::CliOptions &options)
{
    args.insert(args.begin(), "pfs_cli");
    return cli::parseCliArgs(static_cast<int>(args.size()),
                             args.data(), options);
}

TEST(CliParse, DefaultsAreValid)
{
    cli::CliOptions options;
    EXPECT_EQ(parse({}, options), "");
    EXPECT_EQ(options.workload, "sharegpt");
    EXPECT_EQ(options.scheduler, "past_future");
    EXPECT_EQ(options.clients, 32u);
}

TEST(CliParse, AcceptsSpaceAndEqualsForms)
{
    cli::CliOptions options;
    EXPECT_EQ(parse({"--scheduler", "aggressive",
                     "--watermark=0.99", "--clients", "64",
                     "--seed=7", "--format", "json"},
                    options),
              "");
    EXPECT_EQ(options.scheduler, "aggressive");
    EXPECT_DOUBLE_EQ(options.watermark, 0.99);
    EXPECT_EQ(options.clients, 64u);
    EXPECT_EQ(options.seed, 7u);
    EXPECT_EQ(options.format, "json");
}

TEST(CliParse, RejectsUnknownFlagAndBadValues)
{
    cli::CliOptions options;
    EXPECT_NE(parse({"--bogus"}, options), "");
    EXPECT_NE(parse({"--clients", "many"}, options), "");
    EXPECT_NE(parse({"--clients", "64x"}, options), "");
    EXPECT_NE(parse({"--seed"}, options), "");
    EXPECT_NE(parse({"--format", "xml"}, options), "");
    EXPECT_NE(parse({"--clients", "0"}, options), "");
    // Signed values must not wrap through unsigned parsing or
    // reach the engine as negative ticks.
    EXPECT_NE(parse({"--requests", "-1"}, options), "");
    EXPECT_NE(parse({"--clients", "-1"}, options), "");
    EXPECT_NE(parse({"--think-time", "-1"}, options), "");
    EXPECT_NE(parse({"--rate", "-0.5"}, options), "");
    EXPECT_NE(parse({"--max-seconds", "-2"}, options), "");
}

TEST(CliParse, RejectsOutOfDomainValues)
{
    // Each of these once reached a library assertion or silently ran
    // a different scenario; every one must now fail at parse time
    // with a diagnostic naming the flag.
    const std::vector<std::vector<const char *>> cases = {
        {"--window-size", "0"},
        {"--reserved-ratio", "1.5"},
        {"--scheduler", "conservative", "--overcommit", "0"},
        {"--scheduler", "aggressive", "--watermark", "nan"},
        {"--think-time", "nan"},
        {"--think-time", "1e300"},
        {"--tenants", "2", "--tenant-zipf", "nan"},
        {"--tenants", "2", "--tenant-weights", "nan,1"},
        {"--priority-mix", "nan,1"},
        {"--autoscale", "--provision-delay", "nan"},
        {"--block-size", "9223372036854775808"},
        {"--rate", "nan"},
        {"--autoscale", "--scale-slo-target", "nan"},
        {"--instances", "2", "--drain-at", "nan"},
        {"--tp", "4294967296"},
        {"--ttft-limit", "inf"},
        // Positive, but 0 ticks: 0 means "unset" for these three.
        {"--autoscale", "--ttft-limit", "1e-7"},
        {"--autoscale", "--mtpot-limit", "1e-7"},
        {"--max-seconds", "1e-7"},
    };
    for (const auto &args : cases) {
        cli::CliOptions options;
        const std::string flag = args[args.size() - 2];
        const std::string value = args.back();
        EXPECT_EQ(parse(args, options),
                  "bad value for " + flag + ": " + value)
            << flag << " " << value;
    }

    // The domain boundaries themselves stay valid.
    const std::vector<std::vector<const char *>> boundaries = {
        {"--reserved-ratio", "0"},
        {"--watermark", "1"},
        {"--autoscale", "--scale-slo-target", "1"},
        {"--ttft-limit", "1e-6"},
        {"--max-seconds", "0"},
    };
    for (const auto &args : boundaries) {
        cli::CliOptions options;
        EXPECT_EQ(parse(args, options), "") << args[args.size() - 2];
    }
}

TEST(CliParse, RejectsWarmupOnFleets)
{
    // Warmup is counted per engine: a fleet would drop N requests
    // per instance, and the two disagg pools would drop different
    // ones. Like the run limits, it is single-instance only.
    const std::vector<std::vector<const char *>> cases = {
        {"--instances", "2", "--warmup", "40"},
        {"--instances", "4", "--warmup", "1"},
        {"--autoscale", "--warmup", "40"},
        {"--disagg", "--rate", "5", "--warmup", "40"},
        {"--disagg", "--rate", "5", "--warmup", "1"},
    };
    for (const auto &args : cases) {
        cli::CliOptions options;
        const std::string error = parse(args, options);
        EXPECT_NE(error.find("--warmup is single-instance only"),
                  std::string::npos)
            << args[0] << ": " << error;
    }
    cli::CliOptions single;
    EXPECT_EQ(parse({"--warmup", "40"}, single), "");
}

TEST(CliParse, CrossFlagRulesNameTheConflict)
{
    // Each validateOptions rule that spans flags, reached by the
    // smallest command line that breaks it alone.
    struct Case
    {
        std::vector<const char *> args;
        const char *message;
    };
    const std::vector<Case> cases = {
        {{"--trace-replay", "r.csv", "--sessions", "4"},
         "--trace-replay replays a recorded dataset; exclusive with "
         "--sessions"},
        {{"--trace-replay", "r.csv", "--rate", "5"},
         "--trace-replay replays measured arrivals; exclusive with "
         "--rate"},
        {{"--trace-replay", "r.csv", "--rate-schedule", "const:5"},
         "exclusive with --rate-schedule"},
        {{"--disagg", "--sessions", "4"},
         "--disagg serves dataset workloads; --sessions is not "
         "supported"},
        {{"--disagg", "--instances", "2"},
         "--disagg sizes the fleet with"},
        {{"--disagg", "--routing", "least-outstanding"},
         "--disagg fixes routing"},
        {{"--disagg", "--platform-mix", "a30"},
         "--platform-mix is colocated-fleet only"},
        {{"--disagg", "--drain-at", "5"},
         "drain a disagg pool programmatically"},
        {{"--prefill-instances", "2"},
         "--prefill-instances needs --disagg"},
        {{"--decode-instances", "2"},
         "--decode-instances needs --disagg"},
        {{"--handoff-depth", "8"}, "--handoff-depth needs --disagg"},
        {{"--link-gbps", "10"}, "--link-gbps needs --disagg"},
        {{"--link-latency", "0"}, "--link-latency needs --disagg"},
        {{"--autoscale", "--min-instances", "0"},
         "--min-instances must be at least 1"},
        {{"--autoscale", "--disagg", "--rate", "5",
          "--prefill-instances", "9", "--max-instances", "4"},
         "--prefill-instances/--decode-instances must start inside "
         "[--min-instances, --max-instances]"},
        {{"--autoscale", "--disagg", "--rate", "5", "--min-instances",
          "2", "--prefill-instances", "2"},
         "--prefill-instances/--decode-instances must start inside "
         "[--min-instances, --max-instances]"},
        {{"--autoscale", "--instances", "2", "--drain-at", "5"},
         "--drain-at composes with static fleets; --autoscale "
         "manages drains itself"},
        {{"--sim-threads", "2"},
         "--sim-threads needs a co-simulated fleet"},
        {{"--drain-at", "5"},
         "--drain-at needs --instances >= 2 to re-dispatch"},
        {{"--platform-mix", "a30"},
         "--platform-mix needs --instances >= 2"},
        {{"--routing", "least-outstanding"},
         "--routing needs --instances >= 2 or --autoscale"},
    };
    for (const Case &c : cases) {
        cli::CliOptions options;
        const std::string error = parse(c.args, options);
        EXPECT_NE(error.find(c.message), std::string::npos)
            << c.message << " -> " << error;
    }
}

TEST(CliParse, BooleanFlagTakesNoValue)
{
    cli::CliOptions options;
    EXPECT_EQ(parse({"--split-fuse=1"}, options),
              "--split-fuse takes no value");
}

TEST(CliParse, HelpShortCircuits)
{
    cli::CliOptions options;
    EXPECT_EQ(parse({"--help"}, options), "");
    EXPECT_TRUE(options.showHelp);
}

TEST(CliParse, UsageDocumentsEveryRegisteredFlag)
{
    // printCliUsage is the only flag reference users see; a flag
    // parsing accepts but usage omits is invisible. Usage and
    // parsing read the same kFlags rows, so every --name the usage
    // text shows must parse as a known flag.
    std::ostringstream oss;
    cli::printCliUsage(oss);
    const std::string usage = oss.str();
    const std::regex flag_pattern("--[a-z][a-z0-9-]*");
    std::vector<std::string> names;
    for (auto it = std::sregex_iterator(usage.begin(), usage.end(),
                                        flag_pattern);
         it != std::sregex_iterator(); ++it) {
        names.push_back(it->str());
    }
    for (const std::string &flag : names) {
        cli::CliOptions options;
        EXPECT_EQ(parse({flag.c_str()}, options).find("unknown flag"),
                  std::string::npos)
            << "usage text names an unknown flag " << flag;
    }
    // Sanity: the audit list itself is complete enough to include
    // long-standing and brand-new flags alike.
    const char *const expected[] = {
        "--drain-at",      "--platform-mix",
        "--eviction-mode", "--sessions",
        "--turns",         "--system-prompt-tokens",
        "--prefix-cache",  "--split-fuse",
        "--tenant-tree",   "--tenants",
        "--tenant-zipf",   "--tenant-weights",
        "--trace-out",     "--trace-detail",
        "--trace-limit",
    };
    for (const char *flag : expected) {
        EXPECT_NE(std::find(names.begin(), names.end(), flag),
                  names.end())
            << "usage text does not mention " << flag;
    }
}

/** `text` with every run of spaces and newlines squeezed to one
 *  space: the `tr -s ' \n' ' '` form of the usage text. */
std::string
squeezed(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        const char s = c == '\n' ? ' ' : c;
        if (s != ' ' || out.empty() || out.back() != ' ')
            out += s;
    }
    return out;
}

TEST(CliParse, EveryNameFlagChecksItsTable)
{
    // A name flag accepts exactly its table: parsing rejects any
    // other name with the list --help prints, and every listed name
    // parses and assembles (with the flags that gate it).
    struct NameFlag
    {
        const char *flag;
        std::vector<const char *> names;
        std::vector<const char *> gate;
    };
    const NameFlag cases[] = {
        {"--workload",
         {"sharegpt", "sharegpt-o1", "dist1", "dist2", "dist3",
          "textvqa", "trace-conversation", "trace-api", "trace-code",
          "trace-longdoc"},
         {}},
        {"--scheduler",
         {"past_future", "aggressive", "conservative", "oracle"},
         {}},
        {"--queue-policy", {"fcfs", "sjf", "edf", "priority"}, {}},
        {"--model",
         {"llama2-7b", "llama2-13b", "llama2-70b", "qwen-vl-chat",
          "llava15-7b", "llava15-13b"},
         {"--tp", "4"}},
        {"--hardware", {"a100-80g", "h800", "rtx4090", "a30"}, {}},
        {"--routing",
         {"round-robin", "least-outstanding", "future-memory",
          "prefix-affinity", "prefill-load"},
         {"--instances", "2"}},
        {"--scale-policy", {"reactive", "predictive"},
         {"--autoscale"}},
        {"--shed-policy", {"never", "overload"},
         {"--autoscale", "--rate", "5"}},
        {"--prefix-cache", {"on", "off"}, {}},
        {"--eviction-policy", {"lifo", "fifo"}, {}},
        {"--eviction-mode", {"recompute", "swap"}, {}},
        {"--format", {"table", "json", "both"}, {}},
        {"--trace-detail", {"off", "requests", "steps", "full"},
         {"--trace-out", "trace.json"}},
    };
    std::ostringstream usage;
    cli::printCliUsage(usage);
    const std::string help = usage.str();

    for (const NameFlag &c : cases) {
        std::string names;
        for (const char *name : c.names)
            names += std::string(names.empty() ? "" : " | ") + name;

        cli::CliOptions rejected;
        EXPECT_EQ(parse({c.flag, "nope"}, rejected),
                  std::string("bad value for ") + c.flag +
                      ": nope (use " + names + ")");

        // The flag's --help entry opens with the same list, right
        // after its metavar.
        const std::size_t entry =
            help.find(std::string("\n  ") + c.flag + " ");
        ASSERT_NE(entry, std::string::npos) << c.flag;
        const std::string text = squeezed(help.substr(entry + 3));
        const std::size_t list = text.find(' ', text.find(' ') + 1) + 1;
        EXPECT_EQ(text.compare(list, names.size(), names), 0)
            << text.substr(0, list + names.size());

        for (const char *name : c.names) {
            std::vector<const char *> args = c.gate;
            args.insert(args.end(), {c.flag, name, "--requests", "8"});
            cli::CliOptions options;
            ASSERT_EQ(parse(args, options), "") << c.flag << " " << name;
            try {
                const cli::Scenario scenario =
                    cli::assembleScenario(options);
                if (std::string(c.flag) == "--routing") {
                    EXPECT_STREQ(
                        cluster::routingPolicyName(scenario.routing),
                        name);
                }
                if (std::string(c.flag) == "--scale-policy") {
                    EXPECT_EQ(scenario.scalePolicy(0.9)->name(),
                              name);
                }
            } catch (const std::exception &error) {
                ADD_FAILURE() << c.flag << " " << name << ": "
                              << error.what();
            }
        }
    }
}

TEST(CliParse, SessionFlagValidation)
{
    cli::CliOptions options;
    EXPECT_EQ(parse({"--sessions", "4", "--turns", "6",
                     "--system-prompt-tokens", "128",
                     "--prefix-cache", "on"},
                    options),
              "");
    EXPECT_EQ(options.sessions, 4u);
    EXPECT_EQ(options.turns, 6u);
    EXPECT_EQ(options.systemPromptTokens, 128);
    EXPECT_EQ(options.prefixCache, "on");

    cli::CliOptions bad;
    EXPECT_NE(parse({"--prefix-cache", "maybe"}, bad), "");
    bad = {};
    EXPECT_NE(parse({"--sessions", "4", "--turns", "0"}, bad), "");
    bad = {};
    EXPECT_NE(parse({"--system-prompt-tokens", "0"}, bad), "");
    bad = {};
    EXPECT_NE(parse({"--sessions", "4", "--rate", "2.0"}, bad), "");
    bad = {};
    EXPECT_NE(parse({"--sessions", "4", "--priority-mix",
                     "0.5,0.5"},
                    bad),
              "");
}

TEST(CliAssemble, SessionScenarioWiresThrough)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--sessions", "5", "--turns", "3",
                     "--system-prompt-tokens", "200",
                     "--prefix-cache", "on", "--think-time", "1.5"},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    EXPECT_TRUE(scenario.sessionMode);
    EXPECT_TRUE(scenario.engineConfig.prefixCache);
    EXPECT_EQ(scenario.sessionConfig.numSessions, 5u);
    EXPECT_EQ(scenario.sessionConfig.turnsPerSession, 3u);
    EXPECT_EQ(scenario.sessionConfig.systemPromptTokens, 200);
    EXPECT_EQ(scenario.sessionConfig.thinkTime,
              secondsToTicks(1.5));
    // Scheduler cold-start seeding follows the session cap.
    EXPECT_EQ(scenario.schedulerConfig.pastFuture.seedOutputLen,
              workload::kSessionMaxNewTokens);
}

TEST(CliAssemble, BuildsPastFutureScenario)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--scheduler", "past_future",
                     "--reserved-ratio", "0.05", "--window-size",
                     "500", "--workload", "sharegpt-o1",
                     "--requests", "100", "--clients", "16"},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);

    EXPECT_EQ(scenario.schedulerConfig.kind,
              core::SchedulerKind::PastFuture);
    EXPECT_DOUBLE_EQ(
        scenario.schedulerConfig.pastFuture.reservedRatio, 0.05);
    EXPECT_EQ(scenario.schedulerConfig.pastFuture.windowSize, 500u);
    EXPECT_EQ(scenario.dataset.requests.size(), 100u);
    // Cold-start seeding wired from the dataset cap.
    EXPECT_EQ(scenario.schedulerConfig.pastFuture.seedOutputLen,
              scenario.dataset.maxNewTokens);
    EXPECT_EQ(scenario.clients, 16u);
    EXPECT_GT(scenario.perf.tokenCapacity(), 0);
}

TEST(CliAssemble, MapsEveryScheduler)
{
    const std::pair<const char *, core::SchedulerKind> cases[] = {
        {"past_future", core::SchedulerKind::PastFuture},
        {"aggressive", core::SchedulerKind::Aggressive},
        {"conservative", core::SchedulerKind::Conservative},
        {"oracle", core::SchedulerKind::Oracle},
    };
    for (const auto &[name, kind] : cases) {
        cli::CliOptions options;
        ASSERT_EQ(parse({"--scheduler", name, "--requests", "8"},
                        options),
                  "");
        EXPECT_EQ(cli::assembleScenario(options).schedulerConfig.kind,
                  kind)
            << name;
    }
}

TEST(CliAssemble, SlaDefaultsFollowModelSize)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--requests", "8"}, options), "");
    EXPECT_EQ(cli::assembleScenario(options).sla.ttftLimit,
              metrics::SlaSpec::small7b13b().ttftLimit);

    cli::CliOptions large;
    ASSERT_EQ(parse({"--model", "llama2-70b", "--tp", "4",
                     "--requests", "8"},
                    large),
              "");
    EXPECT_EQ(cli::assembleScenario(large).sla.ttftLimit,
              metrics::SlaSpec::large70b().ttftLimit);

    cli::CliOptions custom;
    ASSERT_EQ(parse({"--ttft-limit", "2.5", "--requests", "8"},
                    custom),
              "");
    EXPECT_EQ(cli::assembleScenario(custom).sla.ttftLimit,
              secondsToTicks(2.5));

    cli::CliOptions mtpot;
    ASSERT_EQ(parse({"--mtpot-limit", "0.25", "--requests", "8"},
                    mtpot),
              "");
    const metrics::SlaSpec sla = cli::assembleScenario(mtpot).sla;
    EXPECT_EQ(sla.mtpotLimit, secondsToTicks(0.25));
    EXPECT_EQ(sla.ttftLimit, metrics::SlaSpec::small7b13b().ttftLimit);
}

TEST(CliAssemble, TextVqaImageTokensFollowModel)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--workload", "textvqa", "--model",
                     "qwen-vl-chat", "--requests", "8"},
                    options),
              "");
    const cli::Scenario qwen = cli::assembleScenario(options);

    cli::CliOptions llava_options;
    ASSERT_EQ(parse({"--workload", "textvqa", "--model",
                     "llava15-7b", "--requests", "8"},
                    llava_options),
              "");
    const cli::Scenario llava =
        cli::assembleScenario(llava_options);

    // Qwen-VL's 256-token prefix vs LLaVA's 576 must show up in
    // the generated prompts.
    EXPECT_LT(qwen.dataset.meanInputLen() + 300.0,
              llava.dataset.meanInputLen());
}

/** FNV-1a of the dataset `assembleScenario` builds for a workload
 *  name: the name, the cap, and each request's id and lengths. */
std::uint64_t
workloadStreamHash(const char *workload, const char *seed)
{
    cli::CliOptions options;
    // 4100 requests cross the API trace's first regime re-roll.
    EXPECT_EQ(parse({"--workload", workload, "--seed", seed,
                     "--requests", "4100"},
                    options),
              "");
    const workload::Dataset dataset =
        cli::assembleScenario(options).dataset;
    std::ostringstream bytes;
    bytes << dataset.name << '\n' << dataset.maxNewTokens << '\n';
    for (const workload::RequestSpec &spec : dataset.requests) {
        bytes << spec.id << ',' << spec.inputLen << ','
              << spec.outputLen << ',' << spec.maxNewTokens << '\n';
    }
    return fnv1a(bytes.str());
}

TEST(CliAssemble, WorkloadStreamsArePinned)
{
    struct Pin
    {
        const char *workload;
        std::uint64_t seed42;
        std::uint64_t seed7;
    };
    const Pin pins[] = {
        {"sharegpt", 0x36f489f954086d89ull,
         0x9366588fbe101684ull},
        {"sharegpt-o1", 0x13aaec11f5f61ed3ull,
         0xceb0fea5966dc2b3ull},
        {"dist1", 0x528e4e806b8197dfull,
         0xd6e1def4ee8413f9ull},
        {"dist2", 0x975baf88104f5d6dull,
         0x8bfcd9f54b8bccc6ull},
        {"dist3", 0xf6eec57c2d248d6eull,
         0x166ae164a2d7557eull},
        {"textvqa", 0xd87be77e156b6e8cull,
         0x1557caa7e04be3d6ull},
        {"trace-conversation", 0x2d387c7b8b374136ull,
         0x98097ffe7dd4fd4full},
        {"trace-api", 0xba1e6a2959a05682ull,
         0x75bd12ab3d6ca710ull},
        {"trace-code", 0xefb9ad08206f9673ull,
         0x462a4fc0e7f2cbe6ull},
        {"trace-longdoc", 0xc403588f5b09d40eull,
         0xc49e70f2dc543291ull},
    };
    for (const Pin &pin : pins) {
        EXPECT_EQ(workloadStreamHash(pin.workload, "42"), pin.seed42)
            << pin.workload << " seed 42: 0x" << std::hex
            << workloadStreamHash(pin.workload, "42");
        EXPECT_EQ(workloadStreamHash(pin.workload, "7"), pin.seed7)
            << pin.workload << " seed 7: 0x" << std::hex
            << workloadStreamHash(pin.workload, "7");
    }
}

TEST(CliAssemble, RejectsUnknownNames)
{
    cli::CliOptions options;
    options.workload = "nope";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);

    options = {};
    options.scheduler = "nope";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);

    options = {};
    options.model = "nope";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);

    options = {};
    options.evictionPolicy = "nope";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);

    options = {};
    options.queuePolicy = "nope";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);

    options = {};
    options.priorityMix = "0.5,x";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);

    options = {};
    options.priorityMix = "0,0";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);
}

TEST(CliAssemble, RejectsWarmupTheRunNeverFinishes)
{
    // The run finishes the dataset, or --sessions x --turns, or
    // --max-requests when that is fewer; the warmup must leave at
    // least one of them measured.
    struct Case
    {
        std::vector<const char *> args;
        bool accepted;
    };
    const std::vector<Case> cases = {
        {{"--requests", "10", "--warmup", "1000"}, false},
        {{"--requests", "10", "--warmup", "10"}, false},
        {{"--requests", "10", "--warmup", "9"}, true},
        {{"--sessions", "2", "--turns", "3", "--warmup", "6"}, false},
        {{"--sessions", "2", "--turns", "3", "--warmup", "5"}, true},
        {{"--requests", "10", "--max-requests", "4", "--warmup",
          "4"},
         false},
        {{"--requests", "10", "--max-requests", "4", "--warmup",
          "3"},
         true},
    };
    for (const Case &c : cases) {
        cli::CliOptions options;
        ASSERT_EQ(parse(c.args, options), "");
        if (c.accepted) {
            EXPECT_NO_THROW(cli::assembleScenario(options))
                << c.args[c.args.size() - 1];
            continue;
        }
        try {
            cli::assembleScenario(options);
            ADD_FAILURE() << "accepted --warmup "
                          << c.args[c.args.size() - 1];
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find("--warmup"),
                      std::string::npos)
                << error.what();
        }
    }

    // A caller's dataset sets the bound too.
    cli::CliOptions options;
    options.warmupRequests = 5;
    EXPECT_THROW(cli::assembleScenario(
                     options, workload::makeShareGpt(5, 1)),
                 std::invalid_argument);
    EXPECT_NO_THROW(cli::assembleScenario(
        options, workload::makeShareGpt(6, 1)));
}

TEST(CliAssemble, RejectsBlockLargerThanKvCapacity)
{
    // Such a block once panicked inside the KV block manager; the
    // assembly now names the flag and the capacity, alone or in a
    // fleet.
    cli::CliOptions options;
    options.requests = 8;
    const TokenCount capacity =
        cli::assembleScenario(options).perf.tokenCapacity();
    options.blockSize = capacity;
    EXPECT_NO_THROW(cli::assembleScenario(options));
    for (const std::size_t instances : {1, 2}) {
        options.instances = instances;
        options.blockSize = capacity + 1;
        try {
            cli::assembleScenario(options);
            ADD_FAILURE() << instances << " instances: accepted";
        } catch (const std::invalid_argument &error) {
            EXPECT_EQ(std::string(error.what()),
                      "--block-size " + std::to_string(capacity + 1) +
                          " exceeds the KV capacity of " +
                          std::to_string(capacity) + " tokens");
        }
    }
}

TEST(CliAssemble, RejectsLinkTooSlowForTheClock)
{
    // Such a link once scheduled a migration past the Tick range and
    // aborted the run. The slowest transfer, one decode engine's
    // whole KV plus the link latency, must stay within the bound of
    // every seconds flag.
    cli::CliOptions options;
    ASSERT_EQ(parse({"--disagg", "--rate", "5", "--requests", "8"},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    const double bytes = static_cast<double>(disagg::migrationBytes(
        scenario.disaggConfig, scenario.perf.tokenCapacity()));
    const double seconds =
        kMaxSpanSeconds -
        ticksToSeconds(scenario.disaggConfig.transferLatency);
    const double slowest_gbps = bytes / seconds / 1e9;

    options.linkGbps = slowest_gbps * 1.01;
    EXPECT_NO_THROW(cli::assembleScenario(options));
    options.linkGbps = slowest_gbps * 0.99;
    try {
        cli::assembleScenario(options);
        ADD_FAILURE() << "accepted --link-gbps " << options.linkGbps;
    } catch (const std::invalid_argument &error) {
        EXPECT_EQ(std::string(error.what()).rfind("--link-gbps ", 0),
                  0u)
            << error.what();
    }
}

TEST(CliAssemble, RejectsInputTheFlagsCannotCheck)
{
    // Values parsing accepts that only assembly can judge: a
    // platform mix against --instances, a replayed row's arrival,
    // and (from a programmatic caller) a tenant weight list.
    const std::string no_arrival =
        ::testing::TempDir() + "cli_replay_no_arrival.csv";
    {
        std::ofstream replay(no_arrival);
        replay << "id,input_len,output_len,max_new_tokens,priority,"
                  "tenant,slo_tier,session_key,output_key,segments\n"
                  "7,10,20,100,0,0,0,0,0,\n";
    }
    struct Case
    {
        std::vector<const char *> args;
        std::string message;
    };
    const std::vector<Case> cases = {
        {{"--instances", "2", "--platform-mix", "a30:0"},
         "bad platform mix: a30:0"},
        {{"--instances", "2", "--platform-mix", "a30,:1"},
         "bad platform mix: a30,:1"},
        {{"--instances", "2", "--platform-mix", "a30:3"},
         "platform mix names more than the 2 --instances"},
        {{"--instances", "3", "--platform-mix", "a30,a100-80g"},
         "platform mix names 2 instances but --instances is 3"},
        {{"--trace-replay", no_arrival.c_str()},
         "--trace-replay dataset " + no_arrival +
             ": request 7 has no arrival_us timestamp"},
    };
    for (const Case &c : cases) {
        cli::CliOptions options;
        ASSERT_EQ(parse(c.args, options), "") << c.message;
        try {
            cli::assembleScenario(options);
            ADD_FAILURE() << "accepted: " << c.message;
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find(c.message),
                      std::string::npos)
                << c.message << " -> " << error.what();
        }
    }

    // Parsing rejects such a list (a share domain); assembly
    // rejects it from a caller that skips parsing.
    cli::CliOptions weights;
    weights.tenants = 2;
    weights.tenantWeights = "1,x";
    try {
        cli::assembleScenario(weights);
        ADD_FAILURE() << "accepted --tenant-weights 1,x";
    } catch (const std::invalid_argument &error) {
        EXPECT_STREQ(error.what(), "bad tenant weights: 1,x");
    }
}

TEST(CliAssemble, QueuePolicyAndPriorityMixWireThrough)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--queue-policy", "edf", "--priority-mix",
                     "0.5,0.5", "--requests", "64", "--window-size",
                     "250"},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    EXPECT_EQ(scenario.schedulerConfig.queue.kind,
              core::QueuePolicyKind::Edf);
    // EDF deadlines follow the scenario's TTFT SLA; the SJF
    // predictor follows the past-future window size and seed.
    EXPECT_EQ(scenario.schedulerConfig.queue.ttftDeadline,
              scenario.sla.ttftLimit);
    EXPECT_EQ(scenario.schedulerConfig.queue.predictorWindow, 250u);
    EXPECT_EQ(scenario.schedulerConfig.queue.seedOutputLen,
              scenario.dataset.maxNewTokens);

    // Both classes must actually occur, deterministically in seed.
    std::size_t high = 0;
    for (const auto &spec : scenario.dataset.requests)
        high += spec.cls.priority == 1 ? 1 : 0;
    EXPECT_GT(high, 0u);
    EXPECT_LT(high, scenario.dataset.requests.size());
    const cli::Scenario again = cli::assembleScenario(options);
    for (std::size_t i = 0; i < scenario.dataset.requests.size();
         ++i) {
        EXPECT_EQ(scenario.dataset.requests[i].cls.priority,
                  again.dataset.requests[i].cls.priority);
    }
}

TEST(CliAssemble, AssemblesAroundCallerDataset)
{
    // A dataset no --workload name makes: ShareGPT requests under a
    // 300-token service cap.
    workload::Dataset dataset = workload::makeShareGpt(64, 42);
    dataset.name = "capped";
    dataset.maxNewTokens = 300;

    cli::CliOptions options;
    ASSERT_EQ(parse({"--requests", "64", "--seed", "42",
                     "--priority-mix", "0.5,0.5"},
                    options),
              "");
    const cli::Scenario scenario =
        cli::assembleScenario(options, dataset);

    // Served as given.
    EXPECT_EQ(scenario.dataset.name, "capped");
    EXPECT_EQ(scenario.dataset.maxNewTokens, 300);
    ASSERT_EQ(scenario.dataset.requests.size(),
              dataset.requests.size());
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
        const workload::RequestSpec &served =
            scenario.dataset.requests[i];
        EXPECT_EQ(served.id, dataset.requests[i].id);
        EXPECT_EQ(served.inputLen, dataset.requests[i].inputLen);
        EXPECT_EQ(served.outputLen, dataset.requests[i].outputLen);
        EXPECT_EQ(served.maxNewTokens,
                  dataset.requests[i].maxNewTokens);
    }

    // The cold start seeds from the caller's cap.
    EXPECT_EQ(scenario.schedulerConfig.pastFuture.seedOutputLen, 300);
    EXPECT_EQ(scenario.schedulerConfig.queue.seedOutputLen, 300);

    // --priority-mix draws the classes the flag path draws over the
    // same requests.
    const cli::Scenario flag = cli::assembleScenario(options);
    ASSERT_EQ(flag.dataset.requests.size(), 64u);
    std::size_t high = 0;
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(scenario.dataset.requests[i].cls.priority,
                  flag.dataset.requests[i].cls.priority);
        high += scenario.dataset.requests[i].cls.priority == 1 ? 1 : 0;
    }
    EXPECT_GT(high, 0u);
    EXPECT_LT(high, 64u);

    // Options that name their own dataset cannot take the caller's.
    cli::CliOptions sessions;
    sessions.sessions = 4;
    EXPECT_THROW(cli::assembleScenario(sessions, dataset),
                 std::invalid_argument);
    cli::CliOptions replay;
    replay.traceReplay = "requests.csv";
    EXPECT_THROW(cli::assembleScenario(replay, dataset),
                 std::invalid_argument);
}

TEST(CliParse, TenantFlagValidation)
{
    cli::CliOptions options;
    EXPECT_EQ(parse({"--tenants", "8", "--tenant-zipf", "1.1",
                     "--tenant-tree"},
                    options),
              "");
    EXPECT_EQ(options.tenants, 8u);
    EXPECT_DOUBLE_EQ(options.tenantZipf, 1.1);
    EXPECT_TRUE(options.tenantTree);

    // Every tenant knob needs --tenants.
    cli::CliOptions bad;
    EXPECT_NE(parse({"--tenant-tree"}, bad), "");
    bad = {};
    EXPECT_NE(parse({"--tenant-zipf", "1.0"}, bad), "");
    bad = {};
    EXPECT_NE(parse({"--tenant-weights", "1,2"}, bad), "");
    bad = {};
    EXPECT_NE(parse({"--tenants", "2", "--tenant-zipf", "1.0",
                     "--tenant-weights", "1,2"},
                    bad),
              "");
    bad = {};
    EXPECT_NE(parse({"--sessions", "4", "--tenants", "2"}, bad),
              "");
}

TEST(CliAssemble, TenantMixAndTreeWireThrough)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--tenants", "3", "--tenant-weights", "8,1,1",
                     "--tenant-tree", "--requests", "128"},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    EXPECT_TRUE(scenario.schedulerConfig.tenantTree);
    EXPECT_EQ(scenario.schedulerConfig.tenantSpec.numTenants, 3u);
    ASSERT_EQ(scenario.schedulerConfig.tenantSpec.weights.size(),
              3u);
    EXPECT_DOUBLE_EQ(
        scenario.schedulerConfig.tenantSpec.weights[0], 1.0);
    EXPECT_DOUBLE_EQ(
        scenario.schedulerConfig.tenantSpec.weights[1], 0.125);
    EXPECT_EQ(scenario.tenants, 3u);

    // Every tenant must actually occur, deterministically in seed.
    std::size_t tenantOne = 0;
    for (const auto &spec : scenario.dataset.requests)
        tenantOne += spec.cls.tenant == 1 ? 1 : 0;
    EXPECT_GT(tenantOne, 0u);
    EXPECT_LT(tenantOne, scenario.dataset.requests.size());

    // A weight count that disagrees with --tenants fails assembly.
    cli::CliOptions bad;
    ASSERT_EQ(parse({"--tenants", "3", "--tenant-weights", "1,1"},
                    bad),
              "");
    EXPECT_THROW(cli::assembleScenario(bad),
                 std::invalid_argument);
}

TEST(CliParse, AutoscaleFlagValidation)
{
    cli::CliOptions options;
    EXPECT_EQ(parse({"--autoscale", "--instances", "2",
                     "--min-instances", "1", "--max-instances",
                     "4", "--provision-delay", "5",
                     "--scale-policy", "reactive",
                     "--scale-slo-target", "0.95",
                     "--shed-policy", "overload",
                     "--rate-schedule", "spike:4,20,30,10"},
                    options),
              "");
    EXPECT_TRUE(options.autoscale);
    EXPECT_EQ(options.maxInstances, 4u);
    EXPECT_DOUBLE_EQ(options.scaleSloTarget, 0.95);

    options = {};
    EXPECT_NE(parse({"--autoscale", "--min-instances", "4",
                     "--max-instances", "2"},
                    options),
              "");
    options = {};
    // Initial fleet outside [min, max].
    EXPECT_NE(parse({"--autoscale", "--instances", "9",
                     "--max-instances", "4"},
                    options),
              "");
    options = {};
    EXPECT_NE(parse({"--autoscale", "--scale-slo-target", "1.5"},
                    options),
              "");
    options = {};
    // Shedding guards the autoscaler's max scale.
    EXPECT_NE(parse({"--shed-policy", "overload"}, options), "");
    options = {};
    // Run limits stay single-instance only.
    EXPECT_NE(parse({"--autoscale", "--max-requests", "10"},
                    options),
              "");
    options = {};
    // A schedule fixes the arrival process; --rate conflicts.
    EXPECT_NE(parse({"--rate-schedule", "const:5", "--rate", "2"},
                    options),
              "");
    options = {};
    // Sessions are closed-loop.
    EXPECT_NE(parse({"--sessions", "4", "--rate-schedule",
                     "const:5"},
                    options),
              "");
    options = {};
    // A rate schedule is open-loop: --clients 0 is fine, exactly
    // as with --rate.
    EXPECT_EQ(parse({"--rate-schedule", "const:5", "--clients",
                     "0"},
                    options),
              "");
    options = {};
    // Shed requests get no completion: closed-loop drivers would
    // stall on them, so shedding requires open-loop load.
    EXPECT_NE(parse({"--autoscale", "--shed-policy", "overload"},
                    options),
              "");
    options = {};
    EXPECT_EQ(parse({"--autoscale", "--shed-policy", "overload",
                     "--rate", "5"},
                    options),
              "");
}

TEST(CliAssemble, AutoscaleScenarioWiresThrough)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--autoscale", "--instances", "1",
                     "--max-instances", "3", "--provision-delay",
                     "2.5", "--scale-policy", "predictive",
                     "--scale-slo-target", "0.85",
                     "--shed-policy", "overload",
                     "--rate-schedule", "steps:5x10,9"},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    EXPECT_TRUE(scenario.autoscale);
    ASSERT_NE(scenario.scalePolicy, nullptr);
    EXPECT_EQ(scenario.scalePolicy(0.85)->name(), "predictive");
    EXPECT_EQ(scenario.autoscaleConfig.maxInstances, 3u);
    EXPECT_EQ(scenario.autoscaleConfig.provisionDelay,
              secondsToTicks(2.5));
    EXPECT_DOUBLE_EQ(scenario.autoscaleConfig.sloTarget, 0.85);
    EXPECT_EQ(scenario.autoscaleConfig.shedPolicy,
              autoscale::ShedPolicy::Overload);
    EXPECT_EQ(scenario.autoscaleConfig.sla.ttftLimit,
              scenario.sla.ttftLimit);
    // Autoscale forces the cluster path, even from one instance.
    EXPECT_EQ(scenario.fleetPerfs.size(), 1u);
    ASSERT_TRUE(scenario.hasRateSchedule);
    EXPECT_DOUBLE_EQ(testfx::rateAt(scenario.rateSchedule, 12.0),
                     9.0);

    options.scalePolicy = "psychic";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);
    options.scalePolicy = "predictive";
    options.rateSchedule = "spike:bogus";
    EXPECT_THROW(cli::assembleScenario(options),
                 std::invalid_argument);
}

TEST(CliAssemble, DisaggScenarioWiresThrough)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--disagg", "--prefill-instances", "2",
                     "--decode-instances", "3", "--handoff-depth", "5",
                     "--link-gbps", "12.5", "--link-latency", "0.25",
                     "--model", "llama2-13b", "--block-size", "32"},
                    options),
              "");
    const cli::Scenario set = cli::assembleScenario(options);
    EXPECT_TRUE(set.disagg);
    EXPECT_EQ(set.prefillInstances, 2u);
    EXPECT_EQ(set.decodeInstances, 3u);
    EXPECT_EQ(set.disaggConfig.handoffDepth, 5u);
    EXPECT_DOUBLE_EQ(set.disaggConfig.linkBandwidth, 12.5e9);
    EXPECT_EQ(set.disaggConfig.transferLatency, secondsToTicks(0.25));
    EXPECT_EQ(set.disaggConfig.kvBytesPerToken,
              model::ModelSpec::llama2_13b().kvBytesPerToken());
    EXPECT_EQ(set.disaggConfig.blockSize, 32);

    // Unset, the link follows the hardware's interconnect profile,
    // the handoff queue is 64 deep and each pool has one instance.
    cli::CliOptions defaults;
    ASSERT_EQ(parse({"--disagg", "--hardware", "rtx4090"}, defaults),
              "");
    const cli::Scenario profile = cli::assembleScenario(defaults);
    const model::HardwareSpec rtx4090 = model::HardwareSpec::rtx4090();
    EXPECT_EQ(profile.prefillInstances, 1u);
    EXPECT_EQ(profile.decodeInstances, 1u);
    EXPECT_DOUBLE_EQ(profile.disaggConfig.linkBandwidth,
                     rtx4090.interconnectBandwidth);
    EXPECT_EQ(profile.disaggConfig.transferLatency,
              secondsToTicks(rtx4090.interconnectLatency));
    EXPECT_EQ(profile.disaggConfig.handoffDepth, 64u);
    EXPECT_EQ(profile.disaggConfig.kvBytesPerToken,
              model::ModelSpec::llama2_7b().kvBytesPerToken());
    EXPECT_EQ(profile.disaggConfig.blockSize,
              profile.engineConfig.blockSize);
}

TEST(CliRun, TinyAutoscaleScenarioEndToEnd)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--autoscale", "--instances", "1",
                     "--max-instances", "2", "--provision-delay",
                     "1", "--workload", "dist1", "--requests",
                     "32", "--rate-schedule", "const:8",
                     "--format", "json"},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    EXPECT_EQ(static_cast<std::int64_t>(report.numFinished) +
                  report.shedRequests,
              32);
    EXPECT_GE(report.peakInstances, 1u);
    EXPECT_GT(report.instanceSeconds, 0.0);

    std::ostringstream out;
    cli::emitReport(out, options, scenario, report);
    const std::string text = out.str();
    EXPECT_NE(text.find("\"shed_rate\""), std::string::npos);
    EXPECT_NE(text.find("\"instance_seconds\""),
              std::string::npos);
    EXPECT_NE(text.find("\"p50_ttft_s\""), std::string::npos);
    EXPECT_NE(text.find("\"p90_mtpot_s\""), std::string::npos);
}

TEST(CliRun, TinyScenarioEndToEnd)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--requests", "24", "--clients", "6",
                     "--workload", "dist1", "--format", "both"},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    EXPECT_EQ(report.numFinished, 24u);
    EXPECT_GT(report.totalOutputTokens, 0);

    std::ostringstream out;
    cli::emitReport(out, options, scenario, report);
    const std::string text = out.str();
    EXPECT_NE(text.find("scheduler"), std::string::npos);
    EXPECT_NE(text.find("\"num_finished\""), std::string::npos);
}

/** The value cell of `metric` in a rendered report table. */
std::string
tableValue(const std::string &text, const std::string &metric)
{
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        std::istringstream cells(line);
        std::string bar, name, value;
        if (cells >> bar >> name >> bar >> value && name == metric)
            return value;
    }
    return "";
}

TEST(CliRun, CsvHasOneRowPerFinishedRequest)
{
    const std::string path = ::testing::TempDir() + "cli_requests.csv";
    std::remove(path.c_str());
    cli::CliOptions options;
    ASSERT_EQ(parse({"--requests", "12", "--clients", "4", "--workload",
                     "dist1", "--format", "json", "--csv",
                     path.c_str()},
                    options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    ASSERT_EQ(report.numFinished, 12u);
    std::ostringstream out;
    cli::emitReport(out, options, scenario, report);

    std::ifstream csv(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(csv, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 1 + report.numFinished);
    EXPECT_EQ(lines[0].rfind("id,input_len,output_tokens,", 0), 0u)
        << lines[0];
}

/** The rendered --format table report of a run of `args`. */
std::string
runTable(std::vector<const char *> args)
{
    args.insert(args.end(), {"--format", "table"});
    cli::CliOptions options;
    EXPECT_EQ(parse(args, options), "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    std::ostringstream out;
    cli::emitReport(out, options, scenario, cli::runScenario(scenario));
    return out.str();
}

TEST(CliReport, TableGainsEachSubsystemsRows)
{
    // Each subsystem adds its rows only when it is on; a report
    // without them prints none.
    const std::vector<std::string> prefix_rows = {"prefix_hit_rate",
                                                  "prefix_hit_tokens"};
    const std::vector<std::string> autoscale_rows = {
        "shed_requests", "shed_rate", "peak_instances",
        "scale_up_events", "scale_down_events"};
    const std::vector<std::string> instance_rows = {"instance_seconds",
                                                    "instance_cost"};
    const std::vector<std::string> disagg_rows = {
        "prefill_pool_finished", "prefill_pool_p99_ttft_s",
        "prefill_pool_p99_mtpot_s", "decode_pool_finished",
        "decode_pool_p99_ttft_s", "decode_pool_p99_mtpot_s",
        "handoff_queue_p99_s", "migrated_kv_bytes",
        "migrated_requests", "handoff_shed_requests"};
    const auto has_rows = [](const std::string &text,
                             const std::vector<std::string> &rows,
                             bool present) {
        for (const std::string &row : rows)
            EXPECT_EQ(!tableValue(text, row).empty(), present) << row;
    };

    const std::string plain =
        runTable({"--requests", "8", "--clients", "4"});
    has_rows(plain, prefix_rows, false);
    has_rows(plain, autoscale_rows, false);
    has_rows(plain, instance_rows, false);
    has_rows(plain, disagg_rows, false);

    const std::string sessions = runTable(
        {"--sessions", "2", "--turns", "2", "--prefix-cache", "on"});
    has_rows(sessions, prefix_rows, true);
    EXPECT_NE(tableValue(sessions, "prefix_hit_tokens"), "0");

    const std::string autoscaled =
        runTable({"--autoscale", "--max-instances", "2", "--requests",
                  "16", "--rate", "8"});
    has_rows(autoscaled, autoscale_rows, true);
    has_rows(autoscaled, instance_rows, true);
    has_rows(autoscaled, disagg_rows, false);

    const std::string disagg =
        runTable({"--disagg", "--requests", "8", "--rate", "5"});
    has_rows(disagg, disagg_rows, true);
    has_rows(disagg, instance_rows, true);
    has_rows(disagg, autoscale_rows, false);
    EXPECT_EQ(tableValue(disagg, "migrated_requests"), "8");

    // Both at once: the instance rows print once.
    const std::string both = runTable({"--disagg", "--autoscale",
                                       "--requests", "8", "--rate",
                                       "5"});
    has_rows(both, disagg_rows, true);
    has_rows(both, autoscale_rows, true);
    const auto occurrences = [&both](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t at = both.find(needle);
             at != std::string::npos; at = both.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(occurrences(" instance_seconds "), 1u);
}

TEST(CliReport, TenantP99MatchesReportPercentile)
{
    cli::CliOptions options;
    ASSERT_EQ(parse({"--tenants", "1", "--requests", "8"}, options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);

    // 100 distinct TTFTs: nearest-rank p99 is the 99th, not the max.
    metrics::RunReport report;
    for (int i = 1; i <= 100; ++i) {
        metrics::RequestRecord record;
        record.id = i;
        record.outputTokens = 2;
        record.firstToken = secondsToTicks(0.01 * i);
        record.finish = record.firstToken + secondsToTicks(0.5);
        report.requests.push_back(record);
    }
    report.numFinished = report.requests.size();

    std::ostringstream out;
    cli::emitReport(out, options, scenario, report);
    const std::string text = out.str();
    EXPECT_EQ(tableValue(text, "p99_ttft_s"), "0.990");
    EXPECT_EQ(tableValue(text, "tenant0_p99_ttft_s"),
              tableValue(text, "p99_ttft_s"));
}

/** One {target x load generator} cell of runScenario and the summary
 *  JSON it produced when the cell was introduced. The engine target
 *  also has run-limit cells: `idle_gap` stops at --max-seconds while
 *  the engine idles until an arrival after the limit (the clock
 *  jumps to that arrival, no iteration runs there), `max_requests`
 *  stops a closed loop at --max-requests, and `warmup_limit` stops
 *  a thinking closed loop at --max-seconds with --warmup set. Two
 *  batch-cap cells stop admission rounds at the batch room:
 *  `max_batch` (Past-Future on ShareGPT-o1 under --max-batch 16)
 *  and `tenant_max_batch` (a 3-tenant tree under --max-batch 8). */
struct RunCell
{
    const char *target;
    const char *load;
    std::size_t finished;
    std::uint64_t summaryHash;
};

class CliRunMatrix : public ::testing::TestWithParam<RunCell>
{};

TEST_P(CliRunMatrix, SummaryBytesArePinned)
{
    const RunCell &cell = GetParam();
    const std::string target = cell.target;
    const std::string load = cell.load;

    // The replay trace: 16 ShareGPT requests a quarter second apart.
    const std::string replay_path =
        ::testing::TempDir() + "cli_run_matrix_replay.csv";
    if (load == "replay") {
        workload::Dataset dataset = workload::makeShareGpt(16, 23);
        for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
            dataset.requests[i].arrivalTick =
                static_cast<Tick>(i) * secondsToTicks(0.25);
        }
        std::ofstream replay(replay_path);
        workload::writeDatasetCsv(replay, dataset);
    }

    std::vector<const char *> args = {"--seed", "5"};
    if (target == "fleet")
        args.insert(args.end(), {"--instances", "3"});
    else if (target == "disagg")
        args.push_back("--disagg");
    if (load == "sessions") {
        args.insert(args.end(), {"--sessions", "4", "--turns", "3",
                                 "--prefix-cache", "on"});
    } else if (load == "replay") {
        args.insert(args.end(),
                    {"--trace-replay", replay_path.c_str()});
    } else if (load == "max_batch") {
        args.insert(args.end(),
                    {"--workload", "sharegpt-o1", "--requests", "40",
                     "--clients", "24", "--max-batch", "16"});
    } else if (load == "tenant_max_batch") {
        args.insert(args.end(),
                    {"--tenants", "3", "--tenant-tree", "--workload",
                     "sharegpt", "--requests", "48", "--clients", "24",
                     "--max-batch", "8"});
    } else {
        args.insert(args.end(),
                    {"--workload", "sharegpt", "--requests", "16"});
        if (load == "closed")
            args.insert(args.end(), {"--clients", "4"});
        else if (load == "rate")
            args.insert(args.end(), {"--rate", "4"});
        else if (load == "idle_gap")
            args.insert(args.end(),
                        {"--rate", "0.05", "--max-seconds", "100"});
        else if (load == "max_requests")
            args.insert(args.end(),
                        {"--clients", "4", "--max-requests", "9"});
        else if (load == "warmup_limit")
            args.insert(args.end(),
                        {"--clients", "2", "--think-time", "10",
                         "--warmup", "3", "--max-seconds", "90"});
        else
            args.insert(args.end(),
                        {"--rate-schedule", "steps:6x2,2"});
    }

    cli::CliOptions options;
    ASSERT_EQ(parse(args, options), "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    std::ostringstream json;
    metrics::writeSummaryJson(json, report, scenario.sla);

    EXPECT_EQ(report.numFinished, cell.finished);
    EXPECT_EQ(fnv1a(json.str()), cell.summaryHash)
        << std::hex << "0x" << fnv1a(json.str()) << "\n"
        << json.str();
}

// Sessions are dataset-free closed loops, which --disagg rejects.
INSTANTIATE_TEST_SUITE_P(
    TargetByLoad, CliRunMatrix,
    ::testing::Values(
        RunCell{"engine", "closed", 16, 0x5ce539e228741160ull},
        RunCell{"engine", "rate", 16, 0xd3779cd374a4785full},
        RunCell{"engine", "schedule", 16, 0x95c448e9152f8d6cull},
        RunCell{"engine", "replay", 16, 0x14ec3dba20823aull},
        RunCell{"engine", "sessions", 12, 0x19651529318170a7ull},
        RunCell{"engine", "idle_gap", 8, 0xfd0a6393b990df1cull},
        RunCell{"engine", "max_requests", 9, 0x6b0c4e018118b421ull},
        RunCell{"engine", "warmup_limit", 12, 0x63f42b08b3485b35ull},
        RunCell{"engine", "max_batch", 40, 0xbb2ff24f008de8f5ull},
        RunCell{"engine", "tenant_max_batch", 48,
                0xaa1302dda6fd50d9ull},
        RunCell{"fleet", "closed", 16, 0xd6d86a5911ab496ull},
        RunCell{"fleet", "rate", 16, 0x870f201ed125ddcaull},
        RunCell{"fleet", "schedule", 16, 0x14948c72f226fe38ull},
        RunCell{"fleet", "replay", 16, 0x9b7206be37245d9full},
        RunCell{"fleet", "sessions", 12, 0xa2f8821af58004a3ull},
        RunCell{"disagg", "closed", 16, 0xd5fdd958425d13a4ull},
        RunCell{"disagg", "rate", 16, 0x65b4387aef1fa245ull},
        RunCell{"disagg", "schedule", 16, 0xde8ec74159b6c46full},
        RunCell{"disagg", "replay", 16, 0x7a15949eb9bd5959ull}),
    [](const ::testing::TestParamInfo<RunCell> &info) {
        return std::string(info.param.target) + "_" +
            info.param.load;
    });

/** One {eviction mode x topology} cell of a session run under cache
 *  pressure, and the summary JSON it produced when pinned. */
struct ReclaimCell
{
    const char *eviction;
    const char *topology;
    std::uint64_t summaryHash;
};

class CliReclaimMatrix : public ::testing::TestWithParam<ReclaimCell>
{};

// The sessions cells above never fill the pool. These runs do: the
// small rtx4090 pool forces prefix-cache reclaims during decode,
// evictions, and re-admissions that re-match cached blocks, so the
// pinned bytes cover the LRU reclaim order and the hash chains of
// evicted and re-admitted turns. The round-robin fleet sends a
// session's turns to different instances, so an engine's session
// chain memo misses or holds an older turn; 7-token blocks put
// block boundaries inside segments.
TEST_P(CliReclaimMatrix, SummaryBytesArePinned)
{
    const ReclaimCell &cell = GetParam();
    const std::string topology = cell.topology;
    std::vector<const char *> args = {
        "--seed", "5", "--sessions", "96", "--turns", "6",
        "--prefix-cache", "on", "--hardware", "rtx4090",
        "--eviction-mode", cell.eviction};
    if (topology == "split_fuse")
        args.push_back("--split-fuse");
    else if (topology == "fleet")
        args.insert(args.end(), {"--instances", "3", "--routing",
                                 "prefix-affinity"});
    else if (topology == "round_robin")
        args.insert(args.end(), {"--instances", "3", "--routing",
                                 "round-robin"});
    else if (topology == "block7")
        args.insert(args.end(), {"--block-size", "7"});

    cli::CliOptions options;
    ASSERT_EQ(parse(args, options), "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    std::ostringstream json;
    metrics::writeSummaryJson(json, report, scenario.sla);

    EXPECT_EQ(report.numFinished, 576u);
    EXPECT_GT(report.evictionEvents, 0);
    EXPECT_EQ(fnv1a(json.str()), cell.summaryHash)
        << std::hex << "0x" << fnv1a(json.str()) << "\n"
        << json.str();
}

INSTANTIATE_TEST_SUITE_P(
    EvictionByTopology, CliReclaimMatrix,
    ::testing::Values(
        ReclaimCell{"recompute", "engine", 0x1d7a33ae003b4f36ull},
        ReclaimCell{"recompute", "split_fuse", 0xadf35a060d62323eull},
        ReclaimCell{"recompute", "fleet", 0xacfd18c23d1dd253ull},
        ReclaimCell{"swap", "engine", 0x5af0cf9c2c719681ull},
        ReclaimCell{"swap", "split_fuse", 0xd7e2342d5fbe612aull},
        ReclaimCell{"swap", "fleet", 0xd51918216e5136f7ull},
        ReclaimCell{"recompute", "round_robin",
                    0x948f864e1a32cfd2ull},
        ReclaimCell{"swap", "block7", 0x33cc637bbb095577ull}),
    [](const ::testing::TestParamInfo<ReclaimCell> &info) {
        return std::string(info.param.eviction) + "_" +
            info.param.topology;
    });

/** One --tenant-tree run and the summary JSON it produced when
 *  pinned. */
struct TenantTreeCell
{
    const char *name;
    std::vector<const char *> args;
    std::size_t finished;
    bool evicts;
    std::uint64_t summaryHash;
};

class CliTenantTreeMatrix
    : public ::testing::TestWithParam<TenantTreeCell>
{};

// The tenant tree orders candidates by weighted-fair vruntime and
// re-ranks victims by each tenant's weight-normalised resident KV,
// so the pinned bytes cover both: the zipf cell runs open-loop
// through per-tenant EDF leaves, the weights cell fills the small
// rtx4090 pool so the tree's victimOrder picks evictions.
TEST_P(CliTenantTreeMatrix, SummaryBytesArePinned)
{
    const TenantTreeCell &cell = GetParam();
    std::vector<const char *> args = {"--seed", "5", "--tenant-tree",
                                      "--workload", "sharegpt"};
    args.insert(args.end(), cell.args.begin(), cell.args.end());

    cli::CliOptions options;
    ASSERT_EQ(parse(args, options), "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    std::ostringstream json;
    metrics::writeSummaryJson(json, report, scenario.sla);

    EXPECT_EQ(report.numFinished, cell.finished);
    if (cell.evicts) {
        EXPECT_GT(report.evictionEvents, 0);
    }
    EXPECT_EQ(fnv1a(json.str()), cell.summaryHash)
        << std::hex << "0x" << fnv1a(json.str()) << "\n"
        << json.str();
}

INSTANTIATE_TEST_SUITE_P(
    TenantTree, CliTenantTreeMatrix,
    ::testing::Values(
        TenantTreeCell{"zipf_edf",
                       {"--tenants", "4", "--tenant-zipf", "1.0",
                        "--queue-policy", "edf", "--requests", "64",
                        "--rate", "8"},
                       64, false, 0x608540dc124c3625ull},
        TenantTreeCell{"weights_evicting",
                       {"--tenants", "3", "--tenant-weights",
                        "8,1,1", "--requests", "96", "--clients",
                        "24", "--hardware", "rtx4090", "--scheduler",
                        "aggressive"},
                       96, true, 0x211f1263c5547f0dull}),
    [](const ::testing::TestParamInfo<TenantTreeCell> &info) {
        return std::string(info.param.name);
    });

/** One {scheduler x queue policy} cell, flat or under a 8,1,1
 *  tenant tree, and the summary JSON it produced when pinned. */
struct PolicyCell
{
    const char *scheduler;
    const char *queue;
    bool tree;
    bool evicts;
    std::uint64_t summaryHash;
};

class CliPolicyMatrix : public ::testing::TestWithParam<PolicyCell>
{};

// Every admission policy under every queue ordering, on a pool
// small enough that past-future and aggressive evict (all but the
// past-future EDF tree cell, which does not evict at this seed).
// The flat cells pin the queue's ordering and victim ranking and
// the SJF predictor's finish feed; the tree cells pin per-tenant
// ordering, victims ranked by admission order within a tenant, and
// the finish charge through the queue that admitted each request.
TEST_P(CliPolicyMatrix, SummaryBytesArePinned)
{
    const PolicyCell &cell = GetParam();
    std::vector<const char *> args = {
        "--scheduler", cell.scheduler, "--queue-policy", cell.queue,
        "--workload", "sharegpt", "--requests", "96", "--clients",
        "24", "--hardware", "rtx4090", "--priority-mix", "0.7,0.3",
        "--seed", "5"};
    if (cell.tree)
        args.insert(args.end(), {"--tenant-tree", "--tenants", "3",
                                 "--tenant-weights", "8,1,1"});

    cli::CliOptions options;
    ASSERT_EQ(parse(args, options), "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    std::ostringstream json;
    metrics::writeSummaryJson(json, report, scenario.sla);

    EXPECT_EQ(report.numFinished, 96u);
    if (cell.evicts) {
        EXPECT_GT(report.evictionEvents, 0);
    }
    EXPECT_EQ(fnv1a(json.str()), cell.summaryHash)
        << std::hex << "0x" << fnv1a(json.str()) << "\n"
        << json.str();
}

INSTANTIATE_TEST_SUITE_P(
    SchedulerByQueue, CliPolicyMatrix,
    ::testing::Values(
        PolicyCell{"past_future", "fcfs", false, true,
                   0x2add2132c55ee58ull},
        PolicyCell{"past_future", "sjf", false, true,
                   0x4aba381da43ed91bull},
        PolicyCell{"past_future", "edf", false, true,
                   0x92dc7fae3abdadf0ull},
        PolicyCell{"past_future", "priority", false, true,
                   0xf2fe2980974d1b4dull},
        PolicyCell{"aggressive", "fcfs", false, true,
                   0xfaa0a77cf3c65274ull},
        PolicyCell{"aggressive", "sjf", false, true,
                   0xb758712170a9661cull},
        PolicyCell{"aggressive", "edf", false, true,
                   0xe5006dece8e5d88ull},
        PolicyCell{"aggressive", "priority", false, true,
                   0xdc4485639847bc41ull},
        PolicyCell{"conservative", "fcfs", false, false,
                   0x599c25a2a850c861ull},
        PolicyCell{"conservative", "sjf", false, false,
                   0xee9203ab238228f2ull},
        PolicyCell{"conservative", "edf", false, false,
                   0x2245862ea9af2343ull},
        PolicyCell{"conservative", "priority", false, false,
                   0x7fd94f6bf94aea62ull},
        PolicyCell{"oracle", "fcfs", false, false,
                   0xc627c3bd9cb403d5ull},
        PolicyCell{"oracle", "sjf", false, false,
                   0xd959928b7724c17full},
        PolicyCell{"oracle", "edf", false, false,
                   0x293df2ab75a899d6ull},
        PolicyCell{"oracle", "priority", false, false,
                   0xd129bb055f2c015full},
        PolicyCell{"past_future", "fcfs", true, true,
                   0xbaf61d8becd7ba42ull},
        PolicyCell{"past_future", "sjf", true, true,
                   0xb540213fd9a99aebull},
        PolicyCell{"past_future", "edf", true, false,
                   0xd6be2e840d4159d5ull},
        PolicyCell{"past_future", "priority", true, true,
                   0xaf2b9859d4f62c24ull},
        PolicyCell{"aggressive", "fcfs", true, true,
                   0x211f1263c5547f0dull},
        PolicyCell{"aggressive", "sjf", true, true,
                   0x6d9aecc42017f861ull},
        PolicyCell{"aggressive", "edf", true, true,
                   0x2c399442800bbbcull},
        PolicyCell{"aggressive", "priority", true, true,
                   0xf9bc3534c1a2ef0cull}),
    [](const ::testing::TestParamInfo<PolicyCell> &info) {
        return std::string(info.param.tree ? "tree_" : "flat_") +
            info.param.scheduler + "_" + info.param.queue;
    });

} // namespace
} // namespace lightllm
