#include "rl/serialization.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "obs/profiler.hpp"
#include "util/lineio.hpp"

namespace rac::rl {

namespace {
constexpr const char* kMagic = "rac-qtable";

// v1 wrote doubles with printf "%a" / read them with std::stod, both of
// which obey the process locale -- a French locale turns "1.5" into "1,5"
// and breaks the round trip. v2 goes through util/lineio (to_chars /
// from_chars), adds an explicit "end" trailer so the table can be embedded
// in larger streams (agent snapshots, policy libraries), and rejects
// duplicate state rows instead of silently letting the last one win.
constexpr int kVersion = 2;
}  // namespace

void save_qtable(std::ostream& os, const QTable& table) {
  const obs::ProfileScope profile("rl.qtable.save");
  os << kMagic << " v" << kVersion << "\n";
  os << "default_q " << util::format_double(table.default_q()) << "\n";
  auto states = table.states();
  // Hash-map order is run-dependent; sorted rows keep the output a pure
  // function of the table contents (diffable, byte-stable across runs).
  std::sort(states.begin(), states.end(),
            [](const config::Configuration& a, const config::Configuration& b) {
              return a.values() < b.values();
            });
  os << "states " << util::format_u64(states.size()) << "\n";
  for (const auto& state : states) {
    for (int v : state.values()) os << util::format_i64(v) << ' ';
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      os << util::format_double(
                table.q(state, config::Action(static_cast<int>(a))))
         << (a + 1 == config::kNumActions ? "" : " ");
    }
    os << "\n";
  }
  os << "end\n";
  if (!os) throw std::ios_base::failure("save_qtable: write failed");
}

QTable load_qtable(std::istream& is) {
  const obs::ProfileScope profile("rl.qtable.load");
  const std::string magic = util::read_token(is, "load_qtable");
  const std::string version = util::read_token(is, "load_qtable");
  if (magic != kMagic) {
    throw std::runtime_error("load_qtable: not a rac-qtable stream");
  }
  if (version != "v1" && version != "v2") {
    throw std::runtime_error("load_qtable: unsupported version " + version);
  }
  util::expect_token(is, "default_q", "load_qtable");
  QTable table;
  table.set_default_q(
      util::parse_double(util::read_token(is, "load_qtable"), "load_qtable"));

  util::expect_token(is, "states", "load_qtable");
  const std::uint64_t count =
      util::parse_u64(util::read_token(is, "load_qtable"), "load_qtable");
  std::unordered_set<config::Configuration,  // rac-analyze: allow(hot-path-alloc) load-time duplicate check, not in the training loop
                     config::ConfigurationHash>
      seen;
  seen.reserve(count);
  for (std::uint64_t row = 0; row < count; ++row) {
    std::array<int, config::kNumParams> values{};
    for (auto& v : values) {
      v = util::parse_int(util::read_token(is, "load_qtable state row"),
                          "load_qtable state row");
    }
    const config::Configuration state(values);
    if (state.values() != values) {
      throw std::runtime_error("load_qtable: state outside parameter ranges");
    }
    if (!seen.insert(state).second) {
      throw std::runtime_error(
          "load_qtable: duplicate state row (each state must appear once)");
    }
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      table.set_q(state, config::Action(static_cast<int>(a)),
                  util::parse_double(
                      util::read_token(is, "load_qtable Q row"),
                      "load_qtable Q row"));
    }
  }
  // v1 files simply end after the last row; v2 marks the end explicitly so
  // embedding callers know where the table stops and file callers can
  // reject trailing garbage.
  if (version == "v2") util::expect_token(is, "end", "load_qtable");
  return table;
}

void save_qtable_file(const std::string& path, const QTable& table) {
  std::ostringstream os;
  save_qtable(os, table);
  util::atomic_write_file(path, os.str());
}

QTable load_qtable_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::ios_base::failure("load_qtable_file: cannot open " + path);
  QTable table = load_qtable(is);
  std::string extra;
  if (is >> extra) {
    throw std::runtime_error("load_qtable_file: trailing garbage after table: '" +
                             extra + "'");
  }
  return table;
}

}  // namespace rac::rl
