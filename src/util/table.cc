#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace sky {

void TablePrinter::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TablePrinter::Pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << "%";
  return os.str();
}

std::string TablePrinter::Usd(double dollars, int precision) {
  std::ostringstream os;
  os << "$" << std::fixed << std::setprecision(precision) << dollars;
  return os.str();
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths;
  auto account = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  account(header_);
  for (const auto& r : rows_) account(r);

  os << "\n== " << title_ << " ==\n";
  auto print_row = [&os, &widths](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << "\n";
  };
  if (!header_.empty()) {
    print_row(header_);
    size_t total = 0;
    for (size_t w : widths) total += w + 2;
    os << std::string(total, '-') << "\n";
  }
  for (const auto& r : rows_) print_row(r);
  os.flush();
}

}  // namespace sky
