#include "metrics/report_io.hh"

#include <fstream>
#include <ostream>

#include "base/str_util.hh"

namespace lightllm {
namespace metrics {

void
writeRequestsCsv(std::ostream &os, const RunReport &report,
                 const SlaSpec &sla)
{
    os << "id,input_len,output_tokens,ttft_s,avg_tpot_s,mtpot_s,"
          "evictions,sla_compliant\n";
    for (const auto &record : report.requests) {
        os << record.id << ',' << record.inputLen << ','
           << record.outputTokens << ','
           << formatDouble(ticksToSeconds(record.ttft()), 6) << ','
           << formatDouble(record.avgTpotSeconds(), 6) << ','
           << formatDouble(ticksToSeconds(record.maxGap), 6) << ','
           << record.evictions << ','
           << (sla.compliant(record) ? 1 : 0) << '\n';
    }
}

bool
writeRequestsCsvFile(const std::string &path, const RunReport &report,
                     const SlaSpec &sla)
{
    std::ofstream file(path);
    if (!file)
        return false;
    writeRequestsCsv(file, report, sla);
    return static_cast<bool>(file);
}

void
writeSummaryJson(std::ostream &os, const RunReport &report,
                 const SlaSpec &sla)
{
    // One digest serves all six latency quantiles below (each
    // metric vector is extracted and ranked exactly once).
    const RunReport::LatencyDigest digest = report.latencyDigest();
    os << "{\n"
       << "  \"scheduler\": \"" << report.schedulerName << "\",\n"
       << "  \"num_finished\": " << report.numFinished << ",\n"
       << "  \"decode_steps\": " << report.decodeSteps << ",\n"
       << "  \"prefill_iterations\": " << report.prefillIterations
       << ",\n"
       << "  \"eviction_events\": " << report.evictionEvents << ",\n"
       << "  \"requests_evicted\": " << report.requestsEvicted
       << ",\n"
       << "  \"swap_events\": " << report.swapEvents << ",\n"
       << "  \"total_output_tokens\": " << report.totalOutputTokens
       << ",\n"
       << "  \"total_prefill_tokens\": "
       << report.totalPrefillTokens << ",\n"
       << "  \"prefix_cache_lookups\": " << report.prefixLookups
       << ",\n"
       << "  \"prefix_cache_hit_tokens\": "
       << report.prefixHitTokens << ",\n"
       << "  \"prefix_cache_hit_rate\": "
       << formatDouble(report.prefixHitRate(), 4) << ",\n"
       << "  \"makespan_s\": "
       << formatDouble(ticksToSeconds(report.makespan), 3) << ",\n"
       << "  \"throughput_tok_s\": "
       << formatDouble(report.throughputTokensPerSec(), 3) << ",\n"
       << "  \"goodput_tok_s\": "
       << formatDouble(report.goodputTokensPerSec(sla), 3) << ",\n"
       << "  \"sla_compliant_fraction\": "
       << formatDouble(report.slaCompliantFraction(sla), 4) << ",\n"
       << "  \"p50_ttft_s\": "
       << formatDouble(digest.ttftPercentile(0.50), 3) << ",\n"
       << "  \"p90_ttft_s\": "
       << formatDouble(digest.ttftPercentile(0.90), 3) << ",\n"
       << "  \"p99_ttft_s\": "
       << formatDouble(digest.ttftPercentile(0.99), 3) << ",\n"
       << "  \"p50_mtpot_s\": "
       << formatDouble(digest.mtpotPercentile(0.50), 3) << ",\n"
       << "  \"p90_mtpot_s\": "
       << formatDouble(digest.mtpotPercentile(0.90), 3) << ",\n"
       << "  \"p99_mtpot_s\": "
       << formatDouble(digest.mtpotPercentile(0.99), 3) << ",\n"
       << "  \"shed_requests\": " << report.shedRequests << ",\n"
       << "  \"offered_requests\": " << report.offeredRequests
       << ",\n"
       << "  \"shed_rate\": "
       << formatDouble(report.shedRate(), 4) << ",\n"
       << "  \"instance_seconds\": "
       << formatDouble(report.instanceSeconds, 1) << ",\n"
       << "  \"instance_cost\": "
       << formatDouble(report.instanceCost, 4) << ",\n"
       << "  \"scale_up_events\": " << report.scaleUpEvents << ",\n"
       << "  \"scale_down_events\": " << report.scaleDownEvents
       << ",\n"
       << "  \"peak_instances\": " << report.peakInstances << ",\n";
    if (report.disaggregated) {
        os << "  \"prefill_pool_finished\": "
           << report.prefillPool.finished << ",\n"
           << "  \"prefill_pool_p99_ttft_s\": "
           << formatDouble(report.prefillPool.p99TtftSeconds, 3)
           << ",\n"
           << "  \"prefill_pool_p99_mtpot_s\": "
           << formatDouble(report.prefillPool.p99MtpotSeconds, 3)
           << ",\n"
           << "  \"decode_pool_finished\": "
           << report.decodePool.finished << ",\n"
           << "  \"decode_pool_p99_ttft_s\": "
           << formatDouble(report.decodePool.p99TtftSeconds, 3)
           << ",\n"
           << "  \"decode_pool_p99_mtpot_s\": "
           << formatDouble(report.decodePool.p99MtpotSeconds, 3)
           << ",\n"
           << "  \"handoff_queue_p99_s\": "
           << formatDouble(report.handoffQueueP99Seconds, 4)
           << ",\n"
           << "  \"migrated_kv_bytes\": " << report.migratedKvBytes
           << ",\n"
           << "  \"migrated_requests\": " << report.migratedRequests
           << ",\n"
           << "  \"handoff_shed_requests\": "
           << report.handoffShedRequests << ",\n";
    }
    os << "  \"predicted_eviction_steps\": "
       << report.predictedEvictionSteps << ",\n"
       << "  \"future_error_mean\": "
       << formatDouble(report.futureErrorMean(), 4) << ",\n"
       << "  \"future_error_p99\": "
       << formatDouble(report.futureErrorP99(), 4) << ",\n"
       << "  \"avg_consumed_memory\": "
       << formatDouble(report.avgConsumedMemory, 4) << ",\n"
       << "  \"avg_future_required\": "
       << formatDouble(report.avgFutureRequired, 4) << ",\n"
       << "  \"avg_batch_size\": "
       << formatDouble(report.avgBatchSize, 2) << "\n"
       << "}\n";
}

} // namespace metrics
} // namespace lightllm
