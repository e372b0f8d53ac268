// Console table printing for the benchmark harnesses. Produces the aligned
// rows the paper's tables report, plus optional CSV output for plotting.

#ifndef QSC_UTIL_TABLE_H_
#define QSC_UTIL_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qsc {

// Accumulates rows of string cells and renders them with aligned columns.
//
// Example:
//   TablePrinter t({"dataset", "colors", "error"});
//   t.AddRow({"karate", "6", "1.05"});
//   t.Print(stdout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  // Renders the header, a separator, and all rows.
  void Print(std::FILE* out) const;

  // Comma-separated dump (no alignment), suitable for plotting scripts.
  std::string ToCsv() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// printf-style float formatting helpers used by the harness tables.
std::string FormatDouble(double value, int precision = 3);
std::string FormatSeconds(double seconds);  // "12.3ms", "4.56s", "2m08s"
std::string FormatCount(int64_t count);     // "1 234 567"
std::string FormatRatio(double ratio);      // "87:1", "3 500:1"

}  // namespace qsc

#endif  // QSC_UTIL_TABLE_H_
