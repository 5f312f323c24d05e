/**
 * @file
 * Plain-text table printer used by the benchmark harnesses to emit
 * the rows of each paper table/figure in aligned columns.
 */

#ifndef LIGHTLLM_BASE_TABLE_HH
#define LIGHTLLM_BASE_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace lightllm {

/** Accumulates rows of string cells and prints them aligned. */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a data row; must match the header column count. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator line. */
    void addSeparator();

    /** Render the table to a stream. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    // A row with no cells encodes a separator.
    std::vector<std::vector<std::string>> rows_;
};

} // namespace lightllm

#endif // LIGHTLLM_BASE_TABLE_HH
