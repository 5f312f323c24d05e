#include "workload/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

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

namespace {

/** One row of a dataset CSV: its errors name the dataset and line. */
struct Row
{
    const std::string &name;
    std::size_t line;

    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        throw std::invalid_argument(concat(
            "dataset ", name, " line ", line, ": ",
            std::forward<Args>(args)...));
    }

    std::uint64_t
    hex(const std::string &field) const
    {
        std::size_t used = 0;
        std::uint64_t value = 0;
        try {
            value = std::stoull(field, &used, 16);
        } catch (const std::exception &) {
            fail("bad hex field '", field, "'");
        }
        if (used != field.size())
            fail("trailing junk in hex field '", field, "'");
        return value;
    }

    std::int64_t
    integer(const std::string &field) const
    {
        std::size_t used = 0;
        std::int64_t value = 0;
        try {
            value = std::stoll(field, &used);
        } catch (const std::exception &) {
            fail("non-integer field '", field, "'");
        }
        if (used != field.size())
            fail("trailing junk in field '", field, "'");
        return value;
    }
};

} // namespace

Dataset
readDatasetCsv(std::istream &is, const std::string &name)
{
    Dataset dataset;
    dataset.name = name;
    std::unordered_set<RequestId> ids;
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
        const Row row{name, line_number};
        const auto fields = splitString(trimmed, ',');
        // 11 fields with the arrival_us trace-replay column, 10
        // without it.
        if (fields.size() != 11 && fields.size() != 10)
            row.fail("expected 11 or 10 fields, got ", fields.size());
        RequestSpec spec;
        spec.id = row.integer(fields[0]);
        spec.inputLen = row.integer(fields[1]);
        spec.outputLen = row.integer(fields[2]);
        spec.maxNewTokens = row.integer(fields[3]);
        spec.cls.priority = static_cast<int>(row.integer(fields[4]));
        spec.cls.tenant =
            static_cast<base::TenantId>(row.integer(fields[5]));
        spec.cls.sloTier = static_cast<int>(row.integer(fields[6]));
        spec.sessionKey = row.hex(fields[7]);
        spec.outputKey = row.hex(fields[8]);
        // The engine serves only rows that make these checks pass.
        if (spec.id < 0)
            row.fail("negative request id ", spec.id);
        if (!ids.insert(spec.id).second)
            row.fail("duplicate request id ", spec.id);
        if (spec.inputLen < 1 || spec.outputLen < 1 ||
            spec.maxNewTokens < 1) {
            row.fail("input_len, output_len and max_new_tokens must "
                     "be at least 1");
        }
        if (fields.size() == 11) {
            spec.arrivalTick = row.integer(fields[10]);
            if (spec.arrivalTick < -1)
                row.fail("bad arrival_us (use -1 for none)");
            if (spec.arrivalTick > kMaxSpanTicks) {
                row.fail("arrival_us ", spec.arrivalTick,
                         " is past the simulated clock's ",
                         kMaxSpanSeconds, " s range");
            }
        }
        if (!fields[9].empty()) {
            for (const std::string &entry :
                 splitString(fields[9], '|')) {
                const auto colon = entry.find(':');
                if (colon == std::string::npos)
                    row.fail("segment without ':' separator");
                PromptSegment segment;
                segment.key = row.hex(entry.substr(0, colon));
                segment.len = row.integer(entry.substr(colon + 1));
                if (segment.len <= 0)
                    row.fail("non-positive segment length");
                spec.segments.push_back(segment);
            }
        }
        dataset.maxNewTokens =
            std::max(dataset.maxNewTokens, spec.maxNewTokens);
        dataset.requests.push_back(std::move(spec));
    }
    if (dataset.requests.empty())
        throw std::invalid_argument("dataset " + name +
                                    " has no requests");
    return dataset;
}

Dataset
readDatasetCsvFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        throw std::runtime_error("cannot open dataset file: " + path);
    return readDatasetCsv(file, path);
}

} // namespace workload
} // namespace lightllm
