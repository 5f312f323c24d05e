#include "base/table.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lightllm {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    LIGHTLLM_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    LIGHTLLM_ASSERT(cells.size() == headers_.size(),
                    "row has ", cells.size(), " cells, expected ",
                    headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::addSeparator()
{
    rows_.emplace_back();
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_line = [&](const std::vector<std::string> &cells) {
        os << "|";
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string &cell =
                c < cells.size() ? cells[c] : std::string();
            os << " " << cell
               << std::string(widths[c] - cell.size(), ' ') << " |";
        }
        os << "\n";
    };
    auto print_separator = [&]() {
        os << "|";
        for (std::size_t c = 0; c < headers_.size(); ++c)
            os << std::string(widths[c] + 2, '-') << "|";
        os << "\n";
    };

    print_line(headers_);
    print_separator();
    for (const auto &row : rows_) {
        if (row.empty())
            print_separator();
        else
            print_line(row);
    }
}

} // namespace lightllm
