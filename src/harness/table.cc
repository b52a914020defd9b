#include "harness/table.h"

#include <algorithm>
#include <cstdio>

#include "sim/check.h"

namespace zstor::harness {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

Table& Table::AddRow(std::vector<std::string> cells) {
  ZSTOR_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::Print() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("  ");
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string sep;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    sep += std::string(width[c], '-') + "  ";
  }
  std::printf("  %s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
  std::printf("\n");
}

std::string Fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string FmtUs(double us) { return Fmt(us) + "us"; }
std::string FmtMs(double ms) { return Fmt(ms) + "ms"; }
std::string FmtKiops(double kiops) { return Fmt(kiops, 1) + "K"; }
std::string FmtMibps(double mibps) { return Fmt(mibps, 1) + "MiB/s"; }

void Banner(const std::string& title) {
  std::printf("\n== %s ==\n\n", title.c_str());
}

}  // namespace zstor::harness
