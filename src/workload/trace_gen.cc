#include "workload/trace_gen.hh"

#include <algorithm>
#include <cmath>

#include "base/rng.hh"

namespace lightllm {
namespace workload {

std::vector<std::int64_t>
Trace::outputLens() const
{
    std::vector<std::int64_t> lens;
    lens.reserve(records.size());
    for (const auto &record : records)
        lens.push_back(record.outputLen);
    return lens;
}

namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

TokenCount
clampedLogNormal(Rng &rng, double mu, double sigma, TokenCount lo,
                 TokenCount hi)
{
    const auto value =
        static_cast<TokenCount>(std::llround(rng.logNormal(mu, sigma)));
    return std::clamp(value, lo, hi);
}

} // namespace

Trace
makeConversationTrace(std::size_t n, std::uint64_t seed,
                      double drift_amplitude)
{
    Trace trace;
    trace.name = "conversation";
    trace.records.reserve(n);
    Rng rng(seed);
    const double period = 40000.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double phase =
            kTwoPi * static_cast<double>(i) / period;
        const double mu =
            std::log(300.0) + drift_amplitude * std::sin(phase);
        TraceRecord record;
        record.taskType = 0;
        record.inputLen = clampedLogNormal(rng, std::log(220.0), 0.9,
                                           8, 4096);
        record.outputLen = clampedLogNormal(rng, mu, 0.7, 4, 4096);
        trace.records.push_back(record);
    }
    return trace;
}

Trace
makeApiTrace(std::size_t n, std::uint64_t seed)
{
    // Requests between re-rolls of the task-type weights.
    constexpr std::size_t kRegimeLen = 4000;

    Trace trace;
    trace.name = "api";
    trace.records.reserve(n);
    Rng rng(seed);

    // Four task archetypes: extraction (very short), chat-like,
    // summarization (medium, tight), long-form generation.
    struct TaskType
    {
        double mu;
        double sigma;
        TokenCount lo;
        TokenCount hi;
        double inMu;
    };
    const TaskType types[4] = {
        {std::log(24.0), 0.30, 1, 512, std::log(900.0)},
        {std::log(300.0), 0.40, 8, 4096, std::log(250.0)},
        {std::log(110.0), 0.25, 16, 1024, std::log(2200.0)},
        {std::log(1600.0), 0.35, 64, 8192, std::log(350.0)},
    };

    double weights[4] = {0.25, 0.25, 0.25, 0.25};
    auto reroll_weights = [&]() {
        double total = 0.0;
        for (double &w : weights) {
            // Strongly skewed fresh draw (one or two task types
            // dominate a regime), blended with the previous regime
            // so consecutive regimes stay related while distant
            // ones diverge — the paper's API-trace structure.
            const double fresh =
                std::exp(5.0 * rng.uniformDouble());
            w = 0.15 * w + 0.85 * fresh / 148.0;
            total += w;
        }
        for (double &w : weights)
            w /= total;
    };
    reroll_weights();

    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0 && i % kRegimeLen == 0)
            reroll_weights();
        double pick = rng.uniformDouble();
        int type_index = 3;
        for (int t = 0; t < 4; ++t) {
            pick -= weights[t];
            if (pick <= 0.0) {
                type_index = t;
                break;
            }
        }
        const TaskType &type = types[type_index];
        TraceRecord record;
        record.taskType = type_index;
        record.inputLen =
            clampedLogNormal(rng, type.inMu, 0.6, 8, 8192);
        record.outputLen =
            clampedLogNormal(rng, type.mu, type.sigma, type.lo,
                             type.hi);
        trace.records.push_back(record);
    }
    return trace;
}

Trace
makeCodeCompletionTrace(std::size_t n, std::uint64_t seed)
{
    Trace trace;
    trace.name = "code-completion";
    trace.records.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord record;
        record.taskType = 0;
        record.inputLen = clampedLogNormal(rng, std::log(1800.0),
                                           0.8, 64, 8192);
        record.outputLen = clampedLogNormal(rng, std::log(40.0),
                                            0.75, 1, 512);
        trace.records.push_back(record);
    }
    return trace;
}

Trace
makeLongDocTrace(std::size_t n, std::uint64_t seed)
{
    Trace trace;
    trace.name = "long-document";
    trace.records.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord record;
        record.taskType = 0;
        record.inputLen = clampedLogNormal(rng, std::log(8000.0),
                                           0.7, 512, 32768);
        record.outputLen = clampedLogNormal(rng, std::log(420.0),
                                            0.55, 16, 2048);
        trace.records.push_back(record);
    }
    return trace;
}

Trace
makeAssistantTrace(std::size_t n, std::uint64_t seed)
{
    // A second dialog service with longer answers and mild drift.
    Trace trace = makeConversationTrace(n, seed, 0.15);
    trace.name = "assistant";
    Rng rng(seed ^ 0x5eedf00dull);
    for (auto &record : trace.records) {
        record.outputLen = std::clamp<TokenCount>(
            record.outputLen * 2 +
                rng.uniformInt(0, 64), 4, 8192);
    }
    return trace;
}

Trace
makeMultimodalChatTrace(std::size_t n, std::uint64_t seed)
{
    Trace trace;
    trace.name = "multimodal-chat";
    trace.records.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord record;
        record.taskType = 0;
        record.inputLen = 576 +
            clampedLogNormal(rng, std::log(60.0), 0.6, 4, 1024);
        record.outputLen = clampedLogNormal(rng, std::log(90.0),
                                            0.65, 2, 1024);
        trace.records.push_back(record);
    }
    return trace;
}

std::vector<Trace>
makeFigure3Traces(std::size_t n, std::uint64_t seed)
{
    std::vector<Trace> traces;
    traces.push_back(makeConversationTrace(n, seed + 1));
    traces.push_back(makeApiTrace(n, seed + 2));
    traces.push_back(makeAssistantTrace(n, seed + 3));
    traces.push_back(makeMultimodalChatTrace(n, seed + 4));
    traces.push_back(makeCodeCompletionTrace(n, seed + 5));
    traces.push_back(makeLongDocTrace(n, seed + 6));
    // Match the paper's panel labels (a)-(f).
    traces[0].name = "(a) BurstGPT-conv-like";
    traces[1].name = "(b) BurstGPT-API-like";
    traces[2].name = "(c) in-house dialog-like";
    traces[3].name = "(d) in-house mm-chat-like";
    traces[4].name = "(e) code-completion-like";
    traces[5].name = "(f) Mooncake-like";
    return traces;
}

} // namespace workload
} // namespace lightllm
