#include "golden_checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <vector>

namespace perfbench {
namespace {

using nvbitfi::fi::RunArtifacts;

std::vector<float> Floats(const RunArtifacts& run) {
  std::vector<float> values(run.output_file.size() / sizeof(float));
  std::memcpy(values.data(), run.output_file.data(), values.size() * sizeof(float));
  return values;
}

template <class... Args>
std::string Fail(const char* format, Args... args) {
  char text[256];
  std::snprintf(text, sizeof(text), format, args...);
  return text;
}

double Sum(const std::vector<float>& v, std::size_t begin, std::size_t end) {
  double total = 0.0;
  for (std::size_t i = begin; i < end; ++i) total += v[i];
  return total;
}

// 360.ilbdc: x' = 0.9 x[i] + 0.05 (x[i-1] + x[i+1]) on a periodic ring of
// 256 cells.  The weights are positive and sum to one, so mass is conserved
// and every value stays within the initial minimum and maximum.
std::string CheckIlbdc(const std::vector<float>& field) {
  if (field.size() != 256) return Fail("expected 256 cells, got %zu", field.size());
  std::vector<float> init(256);
  for (std::size_t i = 0; i < init.size(); ++i) {
    init[i] = 1.0f + 0.25f * static_cast<float>(std::cos(0.13 * static_cast<double>(i)));
  }
  const double mass0 = Sum(init, 0, init.size());
  const double mass = Sum(field, 0, field.size());
  if (std::abs(mass - mass0) > 1e-4 * mass0) {
    return Fail("mass not conserved: %.6f vs initial %.6f", mass, mass0);
  }
  const auto [lo, hi] = std::minmax_element(init.begin(), init.end());
  for (const float v : field) {
    if (v < *lo - 1e-5f || v > *hi + 1e-5f) {
      return Fail("value %.6f leaves the initial range [%.6f, %.6f]", v, *lo, *hi);
    }
  }
  return {};
}

// 303.ostencil: 100 explicit heat-equation steps with coefficient 0.19
// (stable: weights 0.62/0.19/0.19 are positive) from a 64-cell hot spot of
// 100 in a cold rod.  Maximum principle: 0 <= T <= 100.  The spot never
// reaches the fixed ends, so total heat stays 6400, and the 16 per-block
// reduction outputs add up to the field's heat.
std::string CheckOstencil(const std::vector<float>& out) {
  if (out.size() != 1024 + 16) return Fail("expected 1040 values, got %zu", out.size());
  for (std::size_t i = 0; i < 1024; ++i) {
    if (out[i] < -1e-4f || out[i] > 100.0f + 1e-4f) {
      return Fail("temperature %.6f outside [0, 100]", out[i]);
    }
  }
  const double heat = Sum(out, 0, 1024);
  if (std::abs(heat - 6400.0) > 1e-3 * 6400.0) {
    return Fail("heat %.4f, expected %.1f", heat, 6400.0);
  }
  const double reduced = Sum(out, 1024, out.size());
  if (std::abs(reduced - heat) > 1e-4 * heat) {
    return Fail("block sums %.4f disagree with the field's heat %.4f", reduced, heat);
  }
  return {};
}

// 354.cg: x solves A x = b with A = tridiag(-1, 2.02, -1) (SPD, 64 rows) and
// b[i] = sin(0.11 (i + 1)); check the relative residual |b - A x| / |b|.
std::string CheckCg(const std::vector<float>& x) {
  if (x.size() != 64) return Fail("expected 64 unknowns, got %zu", x.size());
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double b = static_cast<float>(std::sin(0.11 * static_cast<double>(i + 1)));
    double ax = 2.02 * x[i];
    if (i > 0) ax -= x[i - 1];
    if (i + 1 < x.size()) ax -= x[i + 1];
    rr += (b - ax) * (b - ax);
    bb += b * b;
  }
  const double residual = std::sqrt(rr / bb);
  if (!(residual < 1e-3)) return Fail("relative residual %.3e exceeds 1e-3", residual);
  return {};
}

// 352.ep: outputs are 4 block sums, 4 block sums of squares and a 10-bin
// histogram of 27 passes x 256 gaussian samples.  Every sample lands in one
// bin, so the tallies add up to 6912.  The sums cover the last pass's 256
// samples, whose mean and variance lie within about 3.5 standard errors of
// N(0, 1)'s 0 and 1.
std::string CheckEp(const std::vector<float>& out, const std::string& stdout_text) {
  if (out.size() != 18) return Fail("expected 18 values, got %zu", out.size());
  const double tallied = Sum(out, 8, 18);
  if (tallied != 27.0 * 256.0) return Fail("histogram holds %.0f samples, not 6912", tallied);
  const double n = 256.0;
  const double mean = Sum(out, 0, 4) / n;
  const double var = Sum(out, 4, 8) / n - mean * mean;
  if (std::abs(mean) > 0.2 || std::abs(var - 1.0) > 0.3) {
    return Fail("sample mean %.4f / variance %.4f not standard normal", mean, var);
  }
  const auto peak = std::max_element(out.begin() + 8, out.end()) - (out.begin() + 8);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "peak bin %ld ", static_cast<long>(peak));
  if (stdout_text.find(expected) == std::string::npos) {
    return Fail("printed peak bin disagrees with the histogram's argmax %ld",
                static_cast<long>(peak));
  }
  return {};
}

using Check = std::function<std::string(const RunArtifacts&)>;

const std::map<std::string, Check>& PropertyChecks() {
  static const std::map<std::string, Check> checks = {
      {"360.ilbdc", [](const RunArtifacts& r) { return CheckIlbdc(Floats(r)); }},
      {"303.ostencil", [](const RunArtifacts& r) { return CheckOstencil(Floats(r)); }},
      {"354.cg", [](const RunArtifacts& r) { return CheckCg(Floats(r)); }},
      {"352.ep", [](const RunArtifacts& r) { return CheckEp(Floats(r), r.stdout_text); }},
  };
  return checks;
}

}  // namespace

std::string CheckGoldenOutput(const std::string& program, const RunArtifacts& golden) {
  if (golden.exit_code != 0 || golden.crashed || golden.timed_out ||
      golden.app_check_failed || !golden.cuda_errors.empty()) {
    return "golden run is not clean";
  }
  const std::vector<float> values = Floats(golden);
  if (values.empty()) return "golden run wrote no output";
  for (const float v : values) {
    if (!std::isfinite(v)) return "golden output holds a non-finite value";
  }
  const auto it = PropertyChecks().find(program);
  return it == PropertyChecks().end() ? std::string() : it->second(golden);
}

}  // namespace perfbench
