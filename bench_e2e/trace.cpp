// Span bookkeeping and the Chrome trace-event writer.
#include <cstdio>
#include <string>

#include "e2e.hpp"

namespace e2e {

void Tracer::annotate(const char* name, const std::string& key,
                      double value) {
  if (!on_) return;
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->job != job_) break;
    if (it->name == name) {
      it->args[key] = value;
      return;
    }
  }
}

double Tracer::child_seconds(const char* parent) const {
  double s = 0.0;
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->job != job_) break;
    if (it->parent == parent) s += it->t1 - it->t0;
  }
  return s;
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::map<std::string, std::string>& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans.empty() ? 0.0 : spans.front().t0;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
  const char* sep = "";
  for (const auto& [k, v] : meta) {
    std::fprintf(f, "%s%s: %s", sep, quoted(k).c_str(), quoted(v).c_str());
    sep = ", ";
  }
  std::fprintf(f, "},\n\"traceEvents\": [\n");
  sep = "";
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s{\"name\": %s, \"cat\": \"dwv\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"job\": %d, \"parent\": %s",
                 sep, quoted(s.name).c_str(), (s.t0 - origin) * 1e6,
                 (s.t1 - s.t0) * 1e6, s.job, quoted(s.parent).c_str());
    for (const auto& [k, v] : s.args) {
      std::fprintf(f, ", %s: %.9g", quoted(k).c_str(), v);
    }
    std::fprintf(f, "}}");
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
