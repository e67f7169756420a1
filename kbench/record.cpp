#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "kbench/workloads.hpp"

namespace kbench {

std::string exact(double v) {
  kconv::u64 bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g/%016" PRIx64, v, bits);
  return buf;
}

namespace {

std::string record_path(const RunConfig& cfg) {
  return cfg.state_dir + "/" + cfg.workload + "-seed" +
         std::to_string(cfg.seed) + ".rec";
}

}  // namespace

void check_determinism(const RunConfig& cfg, const Record& rec, Result& res) {
  std::filesystem::create_directories(cfg.state_dir);
  const std::string path = record_path(cfg);
  Record stored;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const auto sp = line.find(' ');
      if (sp != std::string::npos) {
        stored[line.substr(0, sp)] = line.substr(sp + 1);
      }
    }
  }
  u64 compared = 0;
  for (const auto& [key, value] : rec) {
    const auto it = stored.find(key);
    if (it == stored.end()) continue;
    ++compared;
    if (it->second != value) {
      res.fail_check("determinism: " + key + " was " + it->second +
                     ", now " + value);
    }
  }
  std::printf("determinism: %llu values compared with earlier runs of seed "
              "%llu\n",
              static_cast<unsigned long long>(compared),
              static_cast<unsigned long long>(cfg.seed));
  for (const auto& [key, value] : rec) stored.emplace(key, value);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const auto& [key, value] : stored) out << key << ' ' << value << '\n';
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace kbench
