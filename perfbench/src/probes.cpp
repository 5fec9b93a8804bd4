#include "probes.h"

#include <cstdio>
#include <fstream>
#include <string>

#include "telemetry/exposition.h"

namespace perfbench {

using nvbitfi::telemetry::JsonEscape;

void SpanLog::Record(std::uint64_t id, std::uint64_t parent, std::string name,
                     std::string request, std::int64_t start_ns, std::int64_t end_ns,
                     std::uint64_t count) {
  if (!enabled_ || id == 0) return;
  spans_.push_back(Span{id, parent, std::move(name), std::move(request), start_ns,
                        end_ns, count});
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"request\":\"%s\",\"count\":%llu}}%s\n",
                 JsonEscape(s.name).c_str(), (s.start_ns - origin) * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), JsonEscape(s.request).c_str(),
                 static_cast<unsigned long long>(s.count),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;
  }
  return 0.0;
}

}  // namespace perfbench
