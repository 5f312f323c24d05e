/**
 * @file
 * Machine-readable export of run reports, so bench results can be
 * plotted or diffed outside the harness.
 */

#ifndef LIGHTLLM_METRICS_REPORT_IO_HH
#define LIGHTLLM_METRICS_REPORT_IO_HH

#include <iosfwd>
#include <string>

#include "metrics/report.hh"
#include "metrics/sla.hh"

namespace lightllm {
namespace metrics {

/**
 * Per-request CSV:
 * `id,input_len,output_tokens,ttft_s,avg_tpot_s,mtpot_s,evictions,
 *  sla_compliant`.
 */
void writeRequestsCsv(std::ostream &os, const RunReport &report,
                      const SlaSpec &sla);

/** writeRequestsCsv to a file; false when the file cannot be
 *  opened or written. */
bool writeRequestsCsvFile(const std::string &path,
                          const RunReport &report,
                          const SlaSpec &sla);

/** Flat JSON object with the report's aggregate metrics. */
void writeSummaryJson(std::ostream &os, const RunReport &report,
                      const SlaSpec &sla);

} // namespace metrics
} // namespace lightllm

#endif // LIGHTLLM_METRICS_REPORT_IO_HH
