#include "core/export.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace dwv::core {

void write_history_csv(std::ostream& os,
                       const std::vector<IterationRecord>& history) {
  os << "iter,d_u,d_g,w_goal,w_unsafe,feasible\n";
  os << std::setprecision(12);
  for (const auto& r : history) {
    os << r.iter << ',';
    if (r.geo) {
      os << r.geo->d_u << ',' << r.geo->d_g;
    } else {
      os << ',';
    }
    os << ',';
    if (r.wass) {
      os << r.wass->w_goal << ',' << r.wass->w_unsafe;
    } else {
      os << ',';
    }
    os << ',' << (r.feasible ? 1 : 0) << '\n';
  }
}

void write_history_csv_file(const std::string& path,
                            const std::vector<IterationRecord>& history) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  write_history_csv(os, history);
  if (!os) throw std::runtime_error("write failed: " + path);
}

void write_flowpipe_csv(std::ostream& os, const reach::Flowpipe& fp,
                        double delta) {
  if (fp.step_sets.empty()) {
    os << "step,t\n";
    return;
  }
  const std::size_t dim = fp.step_sets.front().dim();
  os << "step,t";
  for (std::size_t d = 0; d < dim; ++d) {
    os << ",x" << d << "_lo,x" << d << "_hi";
  }
  os << '\n';
  os << std::setprecision(12);
  for (std::size_t k = 0; k < fp.step_sets.size(); ++k) {
    os << k << ',' << static_cast<double>(k) * delta;
    for (std::size_t d = 0; d < dim; ++d) {
      os << ',' << fp.step_sets[k][d].lo() << ',' << fp.step_sets[k][d].hi();
    }
    os << '\n';
  }
}

void write_flowpipe_csv_file(const std::string& path,
                             const reach::Flowpipe& fp, double delta) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  write_flowpipe_csv(os, fp, delta);
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace dwv::core
