#include "metrics/plot.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "tensor/check.h"

namespace adafl::metrics {

namespace {
constexpr char kGlyphs[] = {'*', 'o', '+', 'x', '#', '@', '%', '&'};
}

AsciiChart::AsciiChart(int width, int height)
    : width_(width), height_(height) {
  ADAFL_CHECK_MSG(width >= 8 && height >= 4, "AsciiChart: too small");
}

AsciiChart& AsciiChart::add(std::string label, Series series) {
  ADAFL_CHECK_MSG(curves_.size() < sizeof(kGlyphs),
                  "AsciiChart: too many curves");
  ADAFL_CHECK_MSG(!series.empty(), "AsciiChart: empty series");
  curves_.push_back({std::move(label), std::move(series)});
  return *this;
}

AsciiChart& AsciiChart::y_range(double lo, double hi) {
  ADAFL_CHECK_MSG(hi > lo, "AsciiChart: invalid y range");
  fixed_range_ = true;
  y_lo_ = lo;
  y_hi_ = hi;
  return *this;
}

void AsciiChart::print(std::ostream& os) const {
  ADAFL_CHECK_MSG(!curves_.empty(), "AsciiChart: nothing to plot");
  double x_lo = curves_.front().series.x.front();
  double x_hi = x_lo;
  double y_lo = y_lo_, y_hi = y_hi_;
  if (!fixed_range_) {
    y_lo = 1e300;
    y_hi = -1e300;
  }
  for (const auto& c : curves_) {
    x_lo = std::min(x_lo, c.series.x.front());
    x_hi = std::max(x_hi, c.series.x.back());
    if (!fixed_range_)
      for (double y : c.series.y) {
        y_lo = std::min(y_lo, y);
        y_hi = std::max(y_hi, y);
      }
  }
  if (!fixed_range_) {
    const double pad = std::max(1e-9, 0.05 * (y_hi - y_lo));
    y_lo -= pad;
    y_hi += pad;
  }
  if (x_hi <= x_lo) x_hi = x_lo + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(height_),
                                std::string(static_cast<std::size_t>(width_),
                                            ' '));
  auto row_of = [&](double y) {
    const double t = (y - y_lo) / (y_hi - y_lo);
    return std::clamp(height_ - 1 -
                          static_cast<int>(t * (height_ - 1) + 0.5),
                      0, height_ - 1);
  };
  for (std::size_t k = 0; k < curves_.size(); ++k) {
    const char glyph = kGlyphs[k];
    const auto& s = curves_[k].series;
    // Step-interpolate between samples so curves are continuous.
    for (int col = 0; col < width_; ++col) {
      const double x =
          x_lo + (x_hi - x_lo) * static_cast<double>(col) / (width_ - 1);
      if (x < s.x.front() - 1e-12) continue;
      grid[static_cast<std::size_t>(row_of(s.y_at(x)))]
          [static_cast<std::size_t>(col)] = glyph;
    }
  }

  os << std::fixed;
  for (int r = 0; r < height_; ++r) {
    const double y =
        y_hi - (y_hi - y_lo) * static_cast<double>(r) / (height_ - 1);
    os << std::setw(7) << std::setprecision(2) << y << " |"
       << grid[static_cast<std::size_t>(r)] << '\n';
  }
  os << std::string(8, ' ') << '+' << std::string(static_cast<std::size_t>(width_), '-')
     << '\n';
  os << std::string(9, ' ') << std::setprecision(1) << x_lo
     << std::string(static_cast<std::size_t>(std::max(1, width_ - 12)), ' ')
     << x_hi << '\n';
  for (std::size_t k = 0; k < curves_.size(); ++k)
    os << "        " << kGlyphs[k] << " = " << curves_[k].label << '\n';
}

}  // namespace adafl::metrics
