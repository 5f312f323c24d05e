/**
 * @file
 * CSV persistence for datasets: the one request file format.
 *
 * Lets users replay their own production traces through the
 * simulator (the paper's workflow with BurstGPT/Mooncake logs,
 * `pfs_cli --trace-replay`) and lets the benchmark harnesses dump
 * the exact workloads they used.
 */

#ifndef LIGHTLLM_WORKLOAD_TRACE_IO_HH
#define LIGHTLLM_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "workload/datasets.hh"

namespace lightllm {
namespace workload {

/**
 * Write a dataset as CSV with the full RequestSpec: header
 * `id,input_len,output_len,max_new_tokens,priority,tenant,slo_tier,
 * session_key,output_key,segments` (plus `arrival_us` when some
 * request carries a measured arrival), one row per request. The
 * content-identity fields added with the shared-prefix subsystem
 * round-trip exactly: keys are hexadecimal, and `segments` is a
 * `key:len` list joined by '|' (empty for content-less requests).
 */
void writeDatasetCsv(std::ostream &os, const Dataset &dataset);

/**
 * Parse a dataset CSV. The dataset's name is `name`; its generation
 * cap is the maximum per-request max_new_tokens.
 *
 * @throws std::invalid_argument naming the dataset and line of a
 *         malformed row, or of a row no engine can serve: a
 *         negative or repeated id, an input_len, output_len or
 *         max_new_tokens below 1, or an arrival_us past
 *         kMaxSpanSeconds; or naming the dataset when it holds no
 *         request (empty, or a header alone).
 */
Dataset readDatasetCsv(std::istream &is, const std::string &name);

/** Read a dataset CSV from a file (named by its path).
 *  @throws std::runtime_error when the file cannot be opened. */
Dataset readDatasetCsvFile(const std::string &path);

} // namespace workload
} // namespace lightllm

#endif // LIGHTLLM_WORKLOAD_TRACE_IO_HH
