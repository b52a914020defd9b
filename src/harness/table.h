// Fixed-width table printing for bench binaries: every bench prints the
// paper's rows/series with a "paper=" reference column so measured vs
// published values line up visually.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace zstor::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& AddRow(std::vector<std::string> cells);
  /// Prints with column alignment to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting helpers for table cells.
std::string Fmt(double v, int decimals = 2);
std::string FmtUs(double us);
std::string FmtMs(double ms);
std::string FmtKiops(double kiops);
std::string FmtMibps(double mibps);

/// Prints a section banner ("== Figure 2a — ... ==").
void Banner(const std::string& title);

}  // namespace zstor::harness
