#include "serve/metrics.h"

#include <cstdio>
#include <type_traits>

namespace sky::serve {

namespace {

void AppendKey(std::string* out, const char* key) {
  out->push_back('"');
  out->append(key);
  out->append("\": ");
}

void AppendF64(std::string* out, const char* key, double v) {
  char buf[64];
  // %.17g: shortest text that round-trips an IEEE-754 double exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  AppendKey(out, key);
  out->append(buf);
}

void AppendU64(std::string* out, const char* key, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  AppendKey(out, key);
  out->append(buf);
}

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out->push_back('\\');
      out->push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(ch)));
      out->append(buf);
    } else {
      out->push_back(ch);
    }
  }
  out->push_back('"');
}

void AppendString(std::string* out, const char* key, const std::string& v) {
  AppendKey(out, key);
  AppendEscaped(out, v);
}

void AppendSessionObject(std::string* out, const SessionRecord& rec) {
  out->append("{");
  AppendU64(out, "id", rec.id);
  out->append(", ");
  AppendString(out, "workload", rec.spec.workload);
  out->append(", ");
  AppendString(out, "state", SessionStateName(rec.state));
  out->append(", ");
  AppendU64(out, "stream_index", rec.stream_index);
  if (rec.state == SessionState::kFailed) {
    out->append(", ");
    AppendString(out, "error", rec.error.ToString());
  }
  if (rec.state == SessionState::kDone) {
    const core::EngineResult& r = rec.result;
    core::ForEachResultField([&](const char* key, auto field) {
      out->append(", ");
      if constexpr (std::is_floating_point_v<
                        std::remove_reference_t<decltype(r.*field)>>) {
        AppendF64(out, key, r.*field);
      } else {
        AppendU64(out, key, r.*field);
      }
    });
    out->append(", ");
    AppendU64(out, "trace_points", r.trace.size());
  }
  out->append("}");
}

}  // namespace

std::string RenderMetricsJson(const ServerMetrics& m) {
  std::string out;
  out.reserve(512 + m.sessions.size() * 256);
  out.append("{\n  ");
  AppendF64(&out, "uptime_s", m.uptime_s);
  out.append(",\n  ");
  AppendU64(&out, "sessions_accepted", m.sessions_accepted);
  out.append(",\n  ");
  AppendU64(&out, "sessions_rejected", m.sessions_rejected);
  out.append(",\n  ");
  AppendU64(&out, "sessions_running", m.sessions_running);
  out.append(",\n  ");
  AppendU64(&out, "sessions_done", m.sessions_done);
  out.append(",\n  ");
  AppendU64(&out, "sessions_failed", m.sessions_failed);
  out.append(",\n  ");
  AppendU64(&out, "boundaries_planned", m.boundaries_planned);
  out.append(",\n  ");
  AppendF64(&out, "boundary_p50_ms", m.boundary_p50_ms);
  out.append(",\n  ");
  AppendF64(&out, "boundary_p99_ms", m.boundary_p99_ms);
  out.append(",\n  ");
  AppendF64(&out, "shared_budget_core_s_per_video_s",
            m.shared_budget_core_s_per_video_s);
  out.append(",\n  ");
  AppendF64(&out, "cheapest_fleet_cost_core_s_per_video_s",
            m.cheapest_fleet_cost_core_s_per_video_s);
  out.append(",\n  ");
  AppendU64(&out, "fleet_restarts", m.fleet_restarts);
  out.append(",\n  ");
  AppendKey(&out, "sessions");
  out.append("[");
  for (size_t i = 0; i < m.sessions.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendSessionObject(&out, m.sessions[i]);
  }
  out.append("]\n}\n");
  return out;
}

}  // namespace sky::serve
