#ifndef SKYSCRAPER_UTIL_TABLE_H_
#define SKYSCRAPER_UTIL_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace sky {

/// Aligned plain-text table printer used by the benchmark harness so that
/// every bench binary emits the same rows/series the paper reports.
class TablePrinter {
 public:
  explicit TablePrinter(std::string title) : title_(std::move(title)) {}

  void SetHeader(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string Fmt(double v, int precision = 3);
  /// Formats as a percentage ("93.1%").
  static std::string Pct(double fraction, int precision = 1);
  /// Formats as dollars ("$14.90").
  static std::string Usd(double dollars, int precision = 2);

  void Print(std::ostream& os) const;
  const std::string& title() const { return title_; }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sky

#endif  // SKYSCRAPER_UTIL_TABLE_H_
