/**
 * @file
 * Minimal CSV writer for telemetry export (Zeus emits per-GPU CSVs; the
 * artifact's visualization scripts consume the same column layout).
 */

#ifndef CHARLLM_COMMON_CSV_HH
#define CHARLLM_COMMON_CSV_HH

#include <cstdint>
#include <string>
#include <vector>

namespace charllm {

/**
 * Row-oriented CSV writer. Values are quoted only when needed. Each
 * cell is appended straight onto one in-memory body, which str() and
 * writeTo() hand out, keeping unit tests filesystem-free.
 */
class CsvWriter
{
  public:
    /** Set the header row; must be called before any data row. */
    void header(const std::vector<std::string>& columns);

    /** Begin a new data row. */
    void beginRow();

    /** Append one cell to the current row. */
    void cell(const std::string& value);
    void cell(double value);
    void cell(std::uint64_t value);
    void cell(int value);

    /** Finish the current row; cell count must match the header. */
    void endRow();

    /** Serialized CSV content. */
    std::string str() const;

    /** Write the content to a file; returns false on I/O failure. */
    bool writeTo(const std::string& path) const;

    std::size_t numRows() const { return rows; }
    std::size_t numColumns() const { return columns; }

  private:
    /** Start the next cell of the current row (the ',' separator). */
    void nextCell();

    std::string body;
    std::size_t cells = 0; //!< cells in the row being written
    std::size_t columns = 0;
    std::size_t rows = 0;
    bool haveHeader = false;
};

} // namespace charllm

#endif // CHARLLM_COMMON_CSV_HH
