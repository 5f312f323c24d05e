/**
 * @file
 * Aggregated outcome of one serving run.
 */

#ifndef LIGHTLLM_METRICS_REPORT_HH
#define LIGHTLLM_METRICS_REPORT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "metrics/sla.hh"

namespace lightllm {
namespace metrics {

/** Everything measured during a run. */
struct RunReport
{
    std::string schedulerName;

    std::size_t numFinished = 0;

    /** Continuous-batching decode iterations executed. */
    std::int64_t decodeSteps = 0;

    /** Prefill iterations (or split-fuse chunks) executed. */
    std::int64_t prefillIterations = 0;

    /** Total eviction events (one request may count repeatedly). */
    std::int64_t evictionEvents = 0;

    /** Requests evicted at least once. */
    std::size_t requestsEvicted = 0;

    /** KV swap transfers (swap eviction mode; both directions). */
    std::int64_t swapEvents = 0;

    /** Token slots moved across the host link in total. */
    TokenCount swappedTokens = 0;

    TokenCount totalOutputTokens = 0;
    TokenCount totalPrefillTokens = 0;

    /** Prefix-cache admissions by cache-participating requests. */
    std::int64_t prefixLookups = 0;

    /** Prompt tokens those admissions needed in total. */
    TokenCount prefixPromptTokens = 0;

    /** Prompt tokens served from cached blocks (not prefilled). */
    TokenCount prefixHitTokens = 0;

    /** End-of-run simulated time. */
    Tick makespan = 0;

    /** Duration-weighted mean of consumed-memory ratio over decode
     *  steps ("Current Consumed Memory" of Table 1). */
    double avgConsumedMemory = 0.0;

    /** Duration-weighted mean of the true future-required-memory
     *  ratio over decode steps ("Future Required Memory"). */
    double avgFutureRequired = 0.0;

    /** Decode-step-weighted mean running batch size. */
    double avgBatchSize = 0.0;

    // --- Prediction audit (groundwork for misprediction-robust
    // admission, ROADMAP item 4) --------------------------------------

    /** Width of one futureErrorHistogram bin (|ratio error|). */
    static constexpr double kFutureErrorBinWidth = 0.01;

    /** Fixed bin count so per-instance histograms merge by
     *  summation; the last bin collects overflow. */
    static constexpr std::size_t kFutureErrorBins = 64;

    /**
     * Decode steps whose *predicted* future required memory
     * exceeded capacity — the scheduler's own eviction forecast.
     * Compare against evictionEvents: forecast ≫ observed means
     * over-conservative admission, forecast ≪ observed means the
     * predictor is underestimating tails.
     */
    std::int64_t predictedEvictionSteps = 0;

    /** Σ |predicted − true| futureRequiredRatio over decode
     *  steps (mean = / decodeSteps). */
    double futureErrorAbsSum = 0.0;

    /** Histogram of |predicted − true| futureRequiredRatio. */
    std::array<std::int64_t, kFutureErrorBins> futureErrorHistogram{};

    /** Mean |futureRequiredRatio| prediction error per step. */
    double futureErrorMean() const;

    /** p99 of the per-step error (nearest-rank over the histogram;
     *  reported as the matching bin's upper edge). */
    double futureErrorP99() const;

    // --- Fleet / autoscale outcome (zero unless set by a cluster
    // run; engines never shed or scale) -------------------------------

    /** Requests the router rejected under overload shedding. */
    std::int64_t shedRequests = 0;

    /** Requests offered to the router (shed + accepted; 0 for
     *  single-engine runs). */
    std::int64_t offeredRequests = 0;

    /** Instance-seconds consumed over the run: each instance's
     *  alive time (provision to retire/end) summed — the autoscale
     *  cost axis. */
    double instanceSeconds = 0.0;

    /** Autoscale control actions taken. */
    std::int64_t scaleUpEvents = 0;
    std::int64_t scaleDownEvents = 0;

    /** Instance-seconds priced at each instance's platform rate
     *  (HardwareSpec::dollarsPerSecond), in dollars. */
    double instanceCost = 0.0;

    /** Largest concurrently provisioned fleet size (0 unless the
     *  run autoscaled). */
    std::size_t peakInstances = 0;

    // --- Disaggregated prefill/decode outcome (set only by a
    // disagg::DisaggCluster run) --------------------------------------

    /** Per-pool latency summary of a disaggregated run. */
    struct PoolStats
    {
        std::size_t finished = 0;
        double p99TtftSeconds = 0.0;
        double p99MtpotSeconds = 0.0;
    };

    /** True when this report came from a disaggregated run. */
    bool disaggregated = false;

    PoolStats prefillPool;
    PoolStats decodePool;

    /** p99 wait in the migration handoff queue (transfer complete
     *  to decode-pool dispatch), seconds. */
    double handoffQueueP99Seconds = 0.0;

    /** KV bytes migrated prefill → decode over the interconnect. */
    std::int64_t migratedKvBytes = 0;

    /** Requests whose KV migrated (finished-at-prefill excluded). */
    std::int64_t migratedRequests = 0;

    /** Requests dropped because the handoff queue was full. */
    std::int64_t handoffShedRequests = 0;

    /** Per-request latency records. */
    std::vector<RequestRecord> requests;

    // --- Derived metrics --------------------------------------------

    /** Total output tokens per second over the makespan. */
    double throughputTokensPerSec() const;

    /** Output tokens of SLA-compliant requests per second. */
    double goodputTokensPerSec(const SlaSpec &sla) const;

    /** Fraction of requests meeting the SLA. */
    double slaCompliantFraction(const SlaSpec &sla) const;

    /** Eviction events / finished requests (the paper's "Evicted
     *  Reqs"; exceeds 1 when requests are evicted repeatedly). */
    double evictedReqRatio() const;

    /** Prefix-cache hit rate in prompt tokens: hit / needed over
     *  all cache-participating admissions (0 when none). */
    double prefixHitRate() const;

    /** Requests rejected by router admission control / offered to
     *  the router (0 when shedding never happened / not a fleet
     *  run). */
    double shedRate() const;

    /**
     * Extract-once latency digest, the one way to read a report's
     * latency percentiles and means: per-request TTFT and MTPOT
     * sample vectors, pre-sorted ascending, so consumers that need
     * several quantiles of one report (summary lines, JSON writers,
     * tables, pool stats) extract and rank each metric once.
     */
    struct LatencyDigest
    {
        /** Sorted ascending; seconds. */
        std::vector<double> ttftSeconds;

        /** Sorted ascending; seconds. */
        std::vector<double> mtpotSeconds;

        /** Mean TTFT and mean per-request average TPOT in seconds,
         *  summed in record order (0 without records). */
        double meanTtft = 0.0;
        double meanTpot = 0.0;

        /** Nearest-rank percentile (q in [0, 1]); 0 when empty. */
        double ttftPercentile(double q) const;
        double mtpotPercentile(double q) const;
    };

    /** Extract the latency digest (one pass over the records). */
    LatencyDigest latencyDigest() const;

    /** Fraction of requests whose TTFT meets `sla.ttftLimit` (the
     *  autoscaling attainment target; MTPOT not considered). */
    double ttftAttainment(const SlaSpec &sla) const;

    /** One-line human-readable summary. */
    std::string summary(const SlaSpec &sla) const;
};

/**
 * Merges per-instance reports into a cluster-level report, one
 * report at a time, so a fleet never holds every instance's copy at
 * once: counts and tokens are summed, request records concatenated,
 * the makespan is the maximum, and memory ratios are
 * decode-step-weighted averages. Floating-point sums accumulate in
 * add() order; fleets add their instances in index order, so the
 * merged bytes do not depend on how the run was sharded.
 */
class ReportMerger
{
  public:
    /** @param name schedulerName of the merged report. */
    explicit ReportMerger(std::string name);

    /** Fold one instance report in. */
    void add(const RunReport &report);

    /** The merged report; the merger is spent afterwards. */
    RunReport finish();

  private:
    RunReport merged_;
    double consumedWeighted_ = 0.0;
    double futureWeighted_ = 0.0;
    double batchWeighted_ = 0.0;
    double totalSteps_ = 0.0;
};

} // namespace metrics
} // namespace lightllm

#endif // LIGHTLLM_METRICS_REPORT_HH
