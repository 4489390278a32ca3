#include "bench_json.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "cli/numeric_args.h"
#include "exec/executor.h"

namespace qpf::bench {

namespace {

[[nodiscard]] std::string render_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // JSON has no inf/nan literals; clamp to null.
  const std::string text = buffer;
  if (text.find("inf") != std::string::npos ||
      text.find("nan") != std::string::npos) {
    return "null";
  }
  return text;
}

}  // namespace

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

JsonObject& JsonObject::num(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), render_double(value));
  return *this;
}

JsonObject& JsonObject::integer(std::string_view key, std::int64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}

JsonObject& JsonObject::uinteger(std::string_view key, std::uint64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::text(std::string_view key, std::string_view value) {
  fields_.emplace_back(std::string(key), json_quote(value));
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, rendered] : fields_) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += json_quote(key);
    out += ": ";
    out += rendered;
  }
  out += "}";
  return out;
}

std::string render_bench_report(const BenchReport& report) {
  std::string out = "{\n";
  out += "  \"name\": " + json_quote(report.name) + ",\n";
  out += "  \"config\": " + report.config.str() + ",\n";
  out += "  \"wall_ms\": " + render_double(report.wall_ms) + ",\n";
  out += "  \"trials_per_sec\": " + render_double(report.trials_per_sec) +
         ",\n";
  out += "  \"gate_ops_per_sec\": " + render_double(report.gate_ops_per_sec) +
         ",\n";
  out += "  \"stats\": [";
  bool first = true;
  for (const JsonObject& row : report.stats) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + row.str();
  }
  out += report.stats.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void write_bench_report(const std::string& path, const BenchReport& report) {
  const std::string rendered = render_bench_report(report);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot open bench report for writing: " + path);
  }
  const std::size_t written =
      std::fwrite(rendered.data(), 1, rendered.size(), file);
  const bool ok = written == rendered.size() && std::fclose(file) == 0;
  if (!ok) {
    throw std::runtime_error("short write on bench report: " + path);
  }
}

BenchCli::BenchCli(std::string name, int argc, char** argv,
                   std::size_t default_jobs) {
  report.name = std::move(name);
  jobs_ = exec::resolve_jobs(default_jobs);
  const std::string usage = report.name +
                            " [--json PATH] [--jobs N]\n"
                            "  --json PATH  write the machine-readable report "
                            "(schema: see bench/bench_json.h)\n"
                            "  --jobs N     worker threads for trial fan-out "
                            "(0 = hardware_concurrency)\n";
  for (int i = 1; i < argc; ++i) {
    const std::string argument = argv[i];
    const auto value_of = [&](const std::string& flag,
                              std::string& out) -> bool {
      const std::string prefixed = flag + "=";
      if (argument.rfind(prefixed, 0) == 0) {
        out = argument.substr(prefixed.size());
        return true;
      }
      if (argument == flag && i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    std::string value;
    if (value_of("--json", value)) {
      json_path_ = value;
    } else if (value_of("--jobs", value)) {
      try {
        jobs_ = exec::resolve_jobs(static_cast<std::size_t>(
            cli::parse_count(value, cli::kMaxThreads)));
      } catch (const std::invalid_argument& bad) {
        std::cerr << report.name << ": bad --jobs value: " << bad.what()
                  << "\n"
                  << usage;
        std::exit(2);
      }
    } else if (argument == "--help") {
      std::cout << usage;
      std::exit(0);
    } else {
      extra_args_.push_back(argument);
    }
  }
}

void BenchCli::require_no_extra_args() const {
  if (extra_args_.empty()) {
    return;
  }
  std::cerr << report.name << ": unknown argument '" << extra_args_.front()
            << "' (supported: --json PATH, --jobs N, --help)\n";
  std::exit(2);
}

int BenchCli::finish() {
  if (report.wall_ms == 0.0) {
    report.wall_ms = timer_.ms();
  }
  if (!json_enabled()) {
    return 0;
  }
  try {
    write_bench_report(json_path_, report);
  } catch (const std::exception& error) {
    std::cerr << report.name << ": " << error.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace qpf::bench
