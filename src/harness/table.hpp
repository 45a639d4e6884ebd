// Plain-text table / CSV emission for the figure-regeneration binaries.
// Each bench prints one table whose rows are message sizes (or process
// counts) and whose columns are the configurations a paper figure compares.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ib12x::harness {

class Table {
 public:
  Table(std::string title, std::string row_header)
      : title_(std::move(title)), row_header_(std::move(row_header)) {}

  void add_column(std::string name) { columns_.push_back(std::move(name)); }

  void add_row(std::string label, std::vector<double> values) {
    rows_.push_back({std::move(label), std::move(values)});
  }

  /// Fixed-width human-readable table.
  void print(std::FILE* out = stdout, int precision = 2) const;

  /// Machine-readable CSV (same content).
  void print_csv(std::FILE* out, int precision = 4) const;

  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] const std::string& row_header() const { return row_header_; }
  [[nodiscard]] std::size_t column_count() const { return columns_.size(); }
  [[nodiscard]] const std::string& column_label(std::size_t col) const {
    return columns_.at(col);
  }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] double value(std::size_t row, std::size_t col) const {
    return rows_.at(row).values.at(col);
  }
  [[nodiscard]] const std::string& row_label(std::size_t row) const { return rows_.at(row).label; }

 private:
  struct Row {
    std::string label;
    std::vector<double> values;
  };

  std::string title_;
  std::string row_header_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

/// "1K", "64K", "1M" labels like the paper's figure axes.
std::string size_label(std::int64_t bytes);

/// Prints a `paper vs measured` check line used by EXPERIMENTS.md, and
/// records the check as failed when `measured` lies outside the band.
void print_check(const char* what, double measured, double paper_lo, double paper_hi);

/// A bench's exit status: 0 when every print_check so far was in band, else
/// 1, after naming the count of out-of-band checks on stderr.  Every bench
/// that prints checks returns this from main, so a figure that leaves its
/// paper band fails the run.
int checks_status();

}  // namespace ib12x::harness
