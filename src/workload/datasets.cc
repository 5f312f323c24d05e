#include "workload/datasets.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace lightllm {
namespace workload {

double
Dataset::meanInputLen() const
{
    if (requests.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &request : requests)
        sum += static_cast<double>(request.inputLen);
    return sum / static_cast<double>(requests.size());
}

double
Dataset::meanOutputLen() const
{
    if (requests.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &request : requests)
        sum += static_cast<double>(request.effectiveOutputLen());
    return sum / static_cast<double>(requests.size());
}

std::vector<TokenCount>
Dataset::outputLens() const
{
    std::vector<TokenCount> lens;
    lens.reserve(requests.size());
    for (const auto &request : requests)
        lens.push_back(request.outputLen);
    return lens;
}

std::vector<TokenCount>
Dataset::effectiveOutputLens() const
{
    std::vector<TokenCount> lens;
    lens.reserve(requests.size());
    for (const auto &request : requests)
        lens.push_back(request.effectiveOutputLen());
    return lens;
}

TokenCount
clampedLogNormal(Rng &rng, double mu, double sigma, TokenCount lo,
                 TokenCount hi)
{
    const auto value = static_cast<TokenCount>(
        std::llround(rng.logNormal(mu, sigma)));
    return std::clamp(value, lo, hi);
}

std::size_t
drawShare(Rng &rng, std::span<const double> shares, double total)
{
    const double draw = rng.uniformDouble() * total;
    double cumulative = 0.0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
        cumulative += shares[i];
        if (draw < cumulative)
            return i;
    }
    return shares.size() - 1;
}

Dataset
makeUniformDataset(const std::string &name, std::size_t n,
                   TokenCount in_lo, TokenCount in_hi,
                   TokenCount out_lo, TokenCount out_hi,
                   TokenCount max_new_tokens, std::uint64_t seed)
{
    return sampleDataset(
        name, n, max_new_tokens, seed,
        [=](Rng &rng, std::size_t, RequestSpec &spec) {
            spec.inputLen = rng.uniformInt(in_lo, in_hi);
            spec.outputLen = rng.uniformInt(out_lo, out_hi);
        });
}

Dataset
makeDistribution1(std::size_t n, std::uint64_t seed)
{
    return makeUniformDataset("Distribution-1", n, 32, 4096, 2048,
                              4096, 4096, seed);
}

Dataset
makeDistribution2(std::size_t n, std::uint64_t seed)
{
    return makeUniformDataset("Distribution-2", n, 3072, 5120, 3072,
                              5120, 5120, seed);
}

Dataset
makeDistribution3(std::size_t n, std::uint64_t seed)
{
    return makeUniformDataset("Distribution-3", n, 2048, 4096, 32,
                              4096, 4096, seed);
}

Dataset
makeShareGpt(std::size_t n, std::uint64_t seed)
{
    // Chat prompts: median ~250 input tokens, outputs median ~280
    // with a wide spread, capped by max_new_tokens = 2048 (§5.4).
    return sampleDataset(
        "ShareGPT", n, 2048, seed,
        [](Rng &rng, std::size_t, RequestSpec &spec) {
            spec.inputLen =
                clampedLogNormal(rng, std::log(250.0), 1.0, 16, 4096);
            spec.outputLen =
                clampedLogNormal(rng, std::log(280.0), 0.9, 8, 8192);
        });
}

Dataset
makeShareGptO1(std::size_t n, std::uint64_t seed)
{
    // Chain-of-thought serving: the o1-preview responses are long
    // and heavy-tailed. Parameters chosen so the sampled averages
    // match the paper's caption (input ~381, output ~2160).
    return sampleDataset(
        "ShareGPT-o1", n, 8192, seed,
        [](Rng &rng, std::size_t, RequestSpec &spec) {
            spec.inputLen = clampedLogNormal(rng, std::log(270.0),
                                             0.85, 16, 4096);
            spec.outputLen = clampedLogNormal(rng, std::log(1750.0),
                                              0.62, 128, 8192);
        });
}

Dataset
makeTextVqaLike(std::size_t n, TokenCount image_tokens,
                std::uint64_t seed)
{
    LIGHTLLM_ASSERT(image_tokens >= 0, "negative image tokens");
    return sampleDataset(
        "TextVQA-like", n, 256, seed,
        [=](Rng &rng, std::size_t, RequestSpec &spec) {
            spec.inputLen = image_tokens + rng.uniformInt(16, 96);
            spec.outputLen =
                clampedLogNormal(rng, std::log(24.0), 0.8, 2, 256);
        });
}

Dataset
concatDatasets(const std::string &name,
               const std::vector<Dataset> &parts)
{
    Dataset dataset;
    dataset.name = name;
    RequestId next_id = 0;
    for (const auto &part : parts) {
        dataset.maxNewTokens =
            std::max(dataset.maxNewTokens, part.maxNewTokens);
        for (RequestSpec spec : part.requests) {
            spec.id = next_id++;
            dataset.requests.push_back(spec);
        }
    }
    return dataset;
}

void
assignPriorityMix(Dataset &dataset, std::span<const double> shares,
                  std::uint64_t seed)
{
    LIGHTLLM_ASSERT(!shares.empty(), "priority mix needs >= 1 share");
    double total = 0.0;
    for (double share : shares) {
        LIGHTLLM_ASSERT(share >= 0.0,
                        "priority shares must be non-negative");
        total += share;
    }
    LIGHTLLM_ASSERT(total > 0.0, "priority shares must not all be 0");

    Rng rng(seed);
    for (RequestSpec &spec : dataset.requests)
        spec.cls.priority =
            static_cast<int>(drawShare(rng, shares, total));
}

} // namespace workload
} // namespace lightllm
