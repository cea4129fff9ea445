#include "svc/result.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "engine/report.h"
#include "obs/export.h"
#include "svc/json.h"

namespace lbchat::svc {
namespace {

void append_curve(std::string& out, const engine::RunMetrics& m) {
  out += "\"loss_curve\":{\"times\":[";
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    if (i != 0) out += ',';
    out += obs::format_double(m.loss_curve.times[i]);
  }
  out += "],\"values\":[";
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    if (i != 0) out += ',';
    out += obs::format_double(m.loss_curve.values[i]);
  }
  out += "]}";
}

bool write_file(const std::filesystem::path& path, const std::string& content) {
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = content.empty() || std::fwrite(content.data(), 1, content.size(), f) ==
                                         content.size();
  return std::fclose(f) == 0 && ok;
}

bool read_file(const std::filesystem::path& path, std::string& out) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
  const bool ok = out.empty() || std::fread(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

}  // namespace

JobPayload build_payload(const JobSpec& spec, const engine::RunMetrics& metrics,
                         std::string events_jsonl) {
  JobPayload p;
  p.metrics_json = obs::metrics_json(engine::summary_snapshot(metrics));
  p.report_json =
      obs::run_report_json(engine::build_run_report(spec.approach_name, spec.cfg, metrics));
  p.events_jsonl = std::move(events_jsonl);

  char buf[128];
  std::string& m = p.manifest_json;
  m = "{";
  std::snprintf(buf, sizeof buf, "\"fingerprint\":\"%016" PRIx64 "\",", job_fingerprint(spec));
  m += buf;
  m += "\"approach\":\"" + json_escape(spec.approach_name) + "\",";
  m += "\"name\":\"" + json_escape(spec.name) + "\",";
  std::snprintf(buf, sizeof buf, "\"seed\":%llu,\"vehicles\":%d,",
                static_cast<unsigned long long>(spec.cfg.seed), spec.cfg.num_vehicles);
  m += buf;
  m += "\"duration_s\":" + obs::format_double(spec.cfg.duration_s) + ",";
  m += spec.events ? "\"events\":true," : "\"events\":false,";
  std::snprintf(buf, sizeof buf, "\"train_steps\":%ld,", metrics.train_steps);
  m += buf;
  m += "\"final_mean_loss\":" +
       obs::format_double(metrics.loss_curve.values.empty() ? 0.0
                                                            : metrics.loss_curve.values.back()) +
       ",";
  append_curve(m, metrics);
  m += ",\"files\":[\"metrics.json\",\"report.json\"";
  if (!p.events_jsonl.empty()) m += ",\"events.jsonl\"";
  m += "]}";
  return p;
}

bool write_payload(const std::filesystem::path& dir, const JobPayload& payload) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  if (!write_file(dir / "metrics.json", payload.metrics_json)) return false;
  if (!write_file(dir / "report.json", payload.report_json)) return false;
  if (!payload.events_jsonl.empty() &&
      !write_file(dir / "events.jsonl", payload.events_jsonl)) {
    return false;
  }
  // Manifest last: its presence certifies the files above are complete.
  return write_file(dir / "manifest.json", payload.manifest_json);
}

bool read_payload(const std::filesystem::path& dir, JobPayload& out) {
  out = JobPayload{};
  if (!read_file(dir / "manifest.json", out.manifest_json)) return false;
  if (!read_file(dir / "metrics.json", out.metrics_json)) return false;
  if (!read_file(dir / "report.json", out.report_json)) return false;
  // events.jsonl only when the manifest lists it.
  if (out.manifest_json.find("\"events.jsonl\"") != std::string::npos &&
      !read_file(dir / "events.jsonl", out.events_jsonl)) {
    return false;
  }
  return true;
}

}  // namespace lbchat::svc
