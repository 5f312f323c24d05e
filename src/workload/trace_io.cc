#include "workload/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "base/logging.hh"
#include "base/str_util.hh"

namespace lightllm {
namespace workload {

void
writeDatasetCsv(std::ostream &os, const Dataset &dataset)
{
    // The arrival column appears only when some request carries a
    // measured arrival, so datasets without timestamps round-trip
    // byte-identically through the pre-trace-replay schema.
    const bool arrivals = std::any_of(
        dataset.requests.begin(), dataset.requests.end(),
        [](const RequestSpec &spec) {
            return spec.arrivalTick >= 0;
        });
    os << "id,input_len,output_len,max_new_tokens,priority,"
          "tenant,slo_tier,session_key,output_key,segments";
    if (arrivals)
        os << ",arrival_us";
    os << '\n';
    os << std::hex;
    for (const auto &spec : dataset.requests) {
        os << std::dec << spec.id << ',' << spec.inputLen << ','
           << spec.outputLen << ',' << spec.maxNewTokens << ','
           << spec.cls.priority << ',' << spec.cls.tenant << ','
           << spec.cls.sloTier << ',' << std::hex
           << spec.sessionKey << ',' << spec.outputKey << ',';
        for (std::size_t i = 0; i < spec.segments.size(); ++i) {
            if (i > 0)
                os << '|';
            os << spec.segments[i].key << ':' << std::dec
               << spec.segments[i].len << std::hex;
        }
        if (arrivals)
            os << std::dec << ',' << spec.arrivalTick << std::hex;
        os << '\n';
    }
    os << std::dec;
}

void
writeDatasetCsvFile(const std::string &path, const Dataset &dataset)
{
    std::ofstream file(path);
    if (!file)
        fatal("cannot open dataset file for writing: ", path);
    writeDatasetCsv(file, dataset);
    if (!file)
        fatal("error while writing dataset file: ", path);
}

namespace {

std::uint64_t
parseHexField(const std::string &field, const std::string &name,
              std::size_t line_number)
{
    try {
        std::size_t used = 0;
        const std::uint64_t value = std::stoull(field, &used, 16);
        if (used != field.size())
            fatal("dataset ", name, " line ", line_number,
                  ": trailing junk in hex field '", field, "'");
        return value;
    } catch (const std::exception &) {
        fatal("dataset ", name, " line ", line_number,
              ": bad hex field '", field, "'");
    }
}

std::int64_t
parseIntField(const std::string &field, const std::string &name,
              std::size_t line_number)
{
    try {
        std::size_t used = 0;
        const std::int64_t value = std::stoll(field, &used);
        if (used != field.size())
            fatal("dataset ", name, " line ", line_number,
                  ": trailing junk in field '", field, "'");
        return value;
    } catch (const std::exception &) {
        fatal("dataset ", name, " line ", line_number,
              ": non-integer field '", field, "'");
    }
}

} // namespace

Dataset
readDatasetCsv(std::istream &is, const std::string &name)
{
    Dataset dataset;
    dataset.name = name;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(is, line)) {
        ++line_number;
        const std::string_view trimmed = trimString(line);
        if (trimmed.empty())
            continue;
        if (line_number == 1 &&
            trimmed.find("input_len") != std::string_view::npos) {
            continue;  // header
        }
        const auto fields = splitString(trimmed, ',');
        // 11 fields with the arrival_us trace-replay column, 10
        // without it.
        if (fields.size() != 11 && fields.size() != 10) {
            fatal("dataset ", name, " line ", line_number,
                  ": expected 11 or 10 fields, got ", fields.size());
        }
        const bool arrivals = fields.size() == 11;
        RequestSpec spec;
        spec.id = parseIntField(fields[0], name, line_number);
        spec.inputLen = parseIntField(fields[1], name, line_number);
        spec.outputLen =
            parseIntField(fields[2], name, line_number);
        spec.maxNewTokens =
            parseIntField(fields[3], name, line_number);
        spec.cls.priority = static_cast<int>(
            parseIntField(fields[4], name, line_number));
        spec.cls.tenant = static_cast<base::TenantId>(
            parseIntField(fields[5], name, line_number));
        spec.cls.sloTier = static_cast<int>(
            parseIntField(fields[6], name, line_number));
        spec.sessionKey = parseHexField(fields[7], name, line_number);
        spec.outputKey = parseHexField(fields[8], name, line_number);
        if (spec.inputLen < 0 || spec.outputLen < 0 ||
            spec.maxNewTokens < 0) {
            fatal("dataset ", name, " line ", line_number,
                  ": negative length");
        }
        if (arrivals) {
            spec.arrivalTick =
                parseIntField(fields[10], name, line_number);
            if (spec.arrivalTick < -1) {
                fatal("dataset ", name, " line ", line_number,
                      ": bad arrival_us (use -1 for none)");
            }
        }
        if (!fields[9].empty()) {
            for (const std::string &entry :
                 splitString(fields[9], '|')) {
                const auto colon = entry.find(':');
                if (colon == std::string::npos) {
                    fatal("dataset ", name, " line ", line_number,
                          ": segment without ':' separator");
                }
                PromptSegment segment;
                segment.key = parseHexField(entry.substr(0, colon),
                                            name, line_number);
                segment.len = parseIntField(
                    entry.substr(colon + 1), name, line_number);
                if (segment.len <= 0) {
                    fatal("dataset ", name, " line ", line_number,
                          ": non-positive segment length");
                }
                spec.segments.push_back(segment);
            }
        }
        dataset.maxNewTokens =
            std::max(dataset.maxNewTokens, spec.maxNewTokens);
        dataset.requests.push_back(std::move(spec));
    }
    return dataset;
}

Dataset
readDatasetCsvFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot open dataset file: ", path);
    return readDatasetCsv(file, path);
}

} // namespace workload
} // namespace lightllm
