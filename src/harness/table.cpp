#include "harness/table.hpp"

#include <algorithm>
#include <cinttypes>

namespace ib12x::harness {

void Table::print(std::FILE* out, int precision) const {
  std::fprintf(out, "\n== %s ==\n", title_.c_str());
  std::size_t label_w = row_header_.size();
  for (const Row& r : rows_) label_w = std::max(label_w, r.label.size());

  std::fprintf(out, "%-*s", static_cast<int>(label_w + 2), row_header_.c_str());
  for (const auto& c : columns_) std::fprintf(out, "%16s", c.c_str());
  std::fputc('\n', out);

  for (const Row& r : rows_) {
    std::fprintf(out, "%-*s", static_cast<int>(label_w + 2), r.label.c_str());
    for (double v : r.values) std::fprintf(out, "%16.*f", precision, v);
    std::fputc('\n', out);
  }
}

void Table::print_csv(std::FILE* out, int precision) const {
  std::fprintf(out, "%s", row_header_.c_str());
  for (const auto& c : columns_) std::fprintf(out, ",%s", c.c_str());
  std::fputc('\n', out);
  for (const Row& r : rows_) {
    std::fprintf(out, "%s", r.label.c_str());
    for (double v : r.values) std::fprintf(out, ",%.*f", precision, v);
    std::fputc('\n', out);
  }
}

std::string size_label(std::int64_t bytes) {
  if (bytes >= (1 << 20) && bytes % (1 << 20) == 0) {
    return std::to_string(bytes >> 20) + "M";
  }
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return std::to_string(bytes >> 10) + "K";
  }
  return std::to_string(bytes);
}

namespace {
int g_checks_failed = 0;  ///< out-of-band print_check calls in this process
}  // namespace

void print_check(const char* what, double measured, double paper_lo, double paper_hi) {
  const bool ok = measured >= paper_lo && measured <= paper_hi;
  if (!ok) ++g_checks_failed;
  std::printf("  check %-46s measured %10.2f   paper-band [%.2f, %.2f]   %s\n", what, measured,
              paper_lo, paper_hi, ok ? "OK" : "OUT-OF-BAND");
}

int checks_status() {
  if (g_checks_failed == 0) return 0;
  std::fflush(stdout);
  std::fprintf(stderr, "%d check(s) out of band\n", g_checks_failed);
  return 1;
}

}  // namespace ib12x::harness
