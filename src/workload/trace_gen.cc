#include "workload/trace_gen.hh"

#include <algorithm>
#include <cmath>

namespace lightllm {
namespace workload {

namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

/** The dialog services' draw: log-normal lengths whose output
 *  location drifts sinusoidally over a 40000-request period. */
auto
conversationDraw(double drift_amplitude)
{
    return [drift_amplitude](Rng &rng, std::size_t i,
                             RequestSpec &spec) {
        const double period = 40000.0;
        const double phase =
            kTwoPi * static_cast<double>(i) / period;
        const double mu =
            std::log(300.0) + drift_amplitude * std::sin(phase);
        spec.inputLen =
            clampedLogNormal(rng, std::log(220.0), 0.9, 8, 4096);
        spec.outputLen = clampedLogNormal(rng, mu, 0.7, 4, 4096);
    };
}

} // namespace

Dataset
makeConversationTrace(std::size_t n, std::uint64_t seed)
{
    return sampleDataset("conversation", n, 2048, seed,
                         conversationDraw(0.25));
}

Dataset
makeApiTrace(std::size_t n, std::uint64_t seed)
{
    // Requests between re-rolls of the task-type weights.
    constexpr std::size_t kRegimeLen = 4000;

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
    return sampleDataset(
        "api", n, 2048, seed,
        [&](Rng &rng, std::size_t i, RequestSpec &spec) {
            if (i % kRegimeLen == 0) {
                double total = 0.0;
                for (double &w : weights) {
                    // Strongly skewed fresh draw (one or two task
                    // types dominate a regime), blended with the
                    // previous regime so consecutive regimes stay
                    // related while distant ones diverge — the
                    // paper's API-trace structure.
                    const double fresh =
                        std::exp(5.0 * rng.uniformDouble());
                    w = 0.15 * w + 0.85 * fresh / 148.0;
                    total += w;
                }
                for (double &w : weights)
                    w /= total;
            }
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
            spec.inputLen =
                clampedLogNormal(rng, type.inMu, 0.6, 8, 8192);
            spec.outputLen = clampedLogNormal(
                rng, type.mu, type.sigma, type.lo, type.hi);
        });
}

Dataset
makeCodeCompletionTrace(std::size_t n, std::uint64_t seed)
{
    return sampleDataset(
        "code-completion", n, 512, seed,
        [](Rng &rng, std::size_t, RequestSpec &spec) {
            spec.inputLen = clampedLogNormal(rng, std::log(1800.0),
                                             0.8, 64, 8192);
            spec.outputLen =
                clampedLogNormal(rng, std::log(40.0), 0.75, 1, 512);
        });
}

Dataset
makeLongDocTrace(std::size_t n, std::uint64_t seed)
{
    return sampleDataset(
        "long-document", n, 2048, seed,
        [](Rng &rng, std::size_t, RequestSpec &spec) {
            spec.inputLen = clampedLogNormal(rng, std::log(8000.0),
                                             0.7, 512, 32768);
            spec.outputLen = clampedLogNormal(rng, std::log(420.0),
                                              0.55, 16, 2048);
        });
}

Dataset
makeAssistantTrace(std::size_t n, std::uint64_t seed)
{
    // A second dialog service with longer answers and mild drift:
    // the conversation draw, its output doubled plus a jitter from
    // a second stream.
    const auto conversation = conversationDraw(0.15);
    Rng jitter(seed ^ 0x5eedf00dull);
    return sampleDataset(
        "assistant", n, 2048, seed,
        [&](Rng &rng, std::size_t i, RequestSpec &spec) {
            conversation(rng, i, spec);
            spec.outputLen = std::clamp<TokenCount>(
                spec.outputLen * 2 + jitter.uniformInt(0, 64), 4,
                8192);
        });
}

Dataset
makeMultimodalChatTrace(std::size_t n, std::uint64_t seed)
{
    return sampleDataset(
        "multimodal-chat", n, 2048, seed,
        [](Rng &rng, std::size_t, RequestSpec &spec) {
            spec.inputLen = 576 +
                clampedLogNormal(rng, std::log(60.0), 0.6, 4, 1024);
            spec.outputLen =
                clampedLogNormal(rng, std::log(90.0), 0.65, 2, 1024);
        });
}

std::vector<Dataset>
makeFigure3Traces(std::size_t n, std::uint64_t seed)
{
    std::vector<Dataset> traces;
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
