/**
 * @file
 * Builders for the request datasets used in the paper's evaluation.
 *
 * Distribution-1/2/3 follow §5.1 exactly (uniform input/output
 * ranges). ShareGPT and ShareGPT-o1 are synthetic stand-ins for the
 * paper's datasets: the real ones are derived from user logs and the
 * OpenAI o1-preview API, which are not available offline, so we use
 * log-normal fits matched to the summary statistics the paper
 * reports (ShareGPT-o1: average input 381, average output 2160
 * tokens — Figure 7's caption). TextVQA-like requests model the
 * multimodal workload: a fixed image-token prefix plus a short
 * question, with short answers.
 */

#ifndef LIGHTLLM_WORKLOAD_DATASETS_HH
#define LIGHTLLM_WORKLOAD_DATASETS_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "workload/request_spec.hh"

namespace lightllm {
namespace workload {

/** A named list of requests plus the generation cap they share. */
struct Dataset
{
    std::string name;
    std::vector<RequestSpec> requests;
    TokenCount maxNewTokens = 0;

    /** Mean input length over all requests. */
    double meanInputLen() const;

    /** Mean effective output length over all requests. */
    double meanOutputLen() const;

    /** Ground-truth output lengths (EOS positions), uncapped: what
     *  the Figure 3/4 window analysis reads. */
    std::vector<TokenCount> outputLens() const;

    /** Effective output lengths: the service history a scheduler
     *  warm-starts from. */
    std::vector<TokenCount> effectiveOutputLens() const;
};

/** A log-normal length exp(N(mu, sigma)), rounded to the nearest
 *  token and clamped into [lo, hi]. */
TokenCount clampedLogNormal(Rng &rng, double mu, double sigma,
                            TokenCount lo, TokenCount hi);

/**
 * The loop behind every synthetic dataset: `n` requests with ids
 * 0..n-1 and generation cap `max_new_tokens`, drawn in id order from
 * one Rng seeded with `seed`. `draw(rng, i, spec)` sets request i's
 * inputLen and outputLen; it is a template callable, so each draw is
 * a direct call.
 */
template <typename Draw>
Dataset
sampleDataset(std::string name, std::size_t n,
              TokenCount max_new_tokens, std::uint64_t seed,
              Draw &&draw)
{
    Dataset dataset;
    dataset.name = std::move(name);
    dataset.maxNewTokens = max_new_tokens;
    dataset.requests.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        RequestSpec spec;
        spec.id = static_cast<RequestId>(i);
        draw(rng, i, spec);
        spec.maxNewTokens = max_new_tokens;
        dataset.requests.push_back(spec);
    }
    return dataset;
}

/**
 * An i.i.d. categorical draw: the first index whose running sum of
 * `shares` exceeds a uniform draw in [0, total), else the last.
 * `total` is the shares' sum.
 */
std::size_t drawShare(Rng &rng, std::span<const double> shares,
                      double total);

/** Uniform input/output dataset with explicit ranges. */
Dataset makeUniformDataset(const std::string &name, std::size_t n,
                           TokenCount in_lo, TokenCount in_hi,
                           TokenCount out_lo, TokenCount out_hi,
                           TokenCount max_new_tokens,
                           std::uint64_t seed);

/** Distribution-1 (decode-heavy): input 32-4k, output 2k-4k. */
Dataset makeDistribution1(std::size_t n, std::uint64_t seed);

/** Distribution-2 (balanced): input 3k-5k, output 3k-5k. */
Dataset makeDistribution2(std::size_t n, std::uint64_t seed);

/** Distribution-3 (prefill-heavy): input 2k-4k, output 32-4k. */
Dataset makeDistribution3(std::size_t n, std::uint64_t seed);

/**
 * ShareGPT-like chat requests with max_new_tokens = 2048
 * (the Fig 9 end-to-end setup).
 */
Dataset makeShareGpt(std::size_t n, std::uint64_t seed);

/**
 * ShareGPT-o1-like chain-of-thought requests: short prompts,
 * heavy-tailed long outputs (avg input ~381, avg output ~2160).
 */
Dataset makeShareGptO1(std::size_t n, std::uint64_t seed);

/**
 * TextVQA-like multimodal requests: `image_tokens` vision prefix +
 * short question prompt, short answers.
 */
Dataset makeTextVqaLike(std::size_t n, TokenCount image_tokens,
                        std::uint64_t seed);

/** Concatenate datasets back to back (Fig 8's varying load). */
Dataset concatDatasets(const std::string &name,
                       const std::vector<Dataset> &parts);

/**
 * Assign priority classes to a dataset's requests: `shares[p]` is
 * the fraction of requests in class p (higher p = more urgent);
 * shares are normalised over their sum. Assignment is an i.i.d.
 * draw per request, deterministic in `seed` — the workload knob
 * behind the priority/EDF queue policies' `--priority-mix`.
 */
void assignPriorityMix(Dataset &dataset,
                       std::span<const double> shares,
                       std::uint64_t seed);

} // namespace workload
} // namespace lightllm

#endif // LIGHTLLM_WORKLOAD_DATASETS_HH
