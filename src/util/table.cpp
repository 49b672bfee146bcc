#include "util/table.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace rlbf::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table: row width != header width");
  }
  rows_.push_back(std::move(row));
}

std::string Table::fmt(double v, int precision) {
  if (std::isnan(v)) return "-";
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << obs::csv_field(row[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

bool Table::save_csv(const std::string& path) const {
  return obs::write_file(path, [&](std::ostream& os) { print_csv(os); });
}

bool write_gnuplot_script(const std::string& script_path, const std::string& csv_path,
                          const std::string& title, const std::string& x_label,
                          const std::string& y_label, std::size_t series_count,
                          bool log_y) {
  if (series_count == 0) {
    throw std::invalid_argument("write_gnuplot_script: no series");
  }
  std::ofstream out(script_path);
  if (!out) return false;
  std::string png = csv_path;
  if (png.size() > 4 && png.substr(png.size() - 4) == ".csv") {
    png.resize(png.size() - 4);
  }
  png += ".png";
  out << "# Generated by rlbackfilling; render with: gnuplot " << script_path << "\n"
      << "set datafile separator ','\n"
      << "set key autotitle columnhead outside right\n"
      << "set terminal pngcairo size 960,540\n"
      << "set output '" << png << "'\n"
      << "set title '" << title << "'\n"
      << "set xlabel '" << x_label << "'\n"
      << "set ylabel '" << y_label << "'\n"
      << "set grid\n";
  if (log_y) out << "set logscale y\n";
  out << "set datafile missing '-'\n"
      << "plot ";
  for (std::size_t s = 0; s < series_count; ++s) {
    if (s) out << ", \\\n     ";
    out << "'" << csv_path << "' using " << (s + 2) << ":xtic(1)"
        << " with linespoints lw 2";
  }
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace rlbf::util
