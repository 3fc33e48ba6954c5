// Golden frame-trace digests for the forwarding datapath. Every pinned
// fuzz-corpus scenario, plus a spread of generated ones, is replayed with the
// mobile host's devices and the correspondent host tapped. The endpoint frame
// trace (one line per frame: time, MACs, ethertype, length, payload hash, and
// a full hex dump of small control-plane payloads) and the end-state metric
// snapshot are each folded into a digest and compared against
// tests/datapath_digests.txt.
//
// The checked-in digests were recorded while the datapath still carried its
// optional bypasses, at a point where runs with every bypass on and with
// every bypass off produced byte-identical traces — so they pin the plain
// per-frame, fully scheduled behavior, and any refactor of the forwarding
// path must replay them unchanged. A mismatch prints the line the run
// produced; update the file only for a deliberate behavior change, and say so
// in the change description.
//
// The digests assume IEEE-754 double arithmetic without fused multiply-add
// contraction (the x86-64 default): the simulator's delay draws are floating
// point and land in the frame timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/fuzzer.h"
#include "src/check/scenario_gen.h"

namespace msn {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

// FNV-1a: compact payload hashes in trace lines, and the running digests.
uint64_t HashBytes(const uint8_t* data, size_t size, uint64_t h = kFnvOffset) {
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

uint64_t HashLine(const std::string& line, uint64_t h) {
  h = HashBytes(reinterpret_cast<const uint8_t*>(line.data()), line.size(), h);
  const uint8_t newline = '\n';
  return HashBytes(&newline, 1, h);
}

// One scenario's observable outcome, folded into a single digest line:
// "<label> frames=<n> trace=<hex> metrics=<n> snapshot=<hex> checks=<n>".
struct RunDigest {
  uint64_t frames = 0;
  uint64_t trace = kFnvOffset;
  uint64_t metric_count = 0;
  uint64_t snapshot = kFnvOffset;
  uint64_t checks = 0;
  bool failed = false;

  std::string Line(const std::string& label) const {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s frames=%llu trace=%016llx metrics=%llu snapshot=%016llx checks=%llu",
                  label.c_str(), static_cast<unsigned long long>(frames),
                  static_cast<unsigned long long>(trace),
                  static_cast<unsigned long long>(metric_count),
                  static_cast<unsigned long long>(snapshot),
                  static_cast<unsigned long long>(checks));
    return line;
  }
};

// Runs `spec`, tapping the mobile host's two devices and the correspondent
// host — the endpoints whose wire behavior defines "what the network did".
RunDigest RunAndDigest(const ScenarioSpec& spec) {
  RunDigest digest;
  RunOptions options;
  options.instrument = [&digest](Testbed& tb) {
    auto tap_for = [&digest, &tb](const char* dev_name) {
      return [&digest, &tb, dev_name](const EthernetFrame& frame,
                                      NetDevice::TapDirection dir) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s %c t=%lld %s>%s et=%04x len=%zu payload=%016llx",
                      dev_name,
                      dir == NetDevice::TapDirection::kTransmit ? 'T' : 'R',
                      static_cast<long long>(tb.sim.Now().nanos()),
                      frame.src.ToString().c_str(), frame.dst.ToString().c_str(),
                      static_cast<unsigned>(frame.ethertype), frame.payload.size(),
                      static_cast<unsigned long long>(
                          HashBytes(frame.payload.data(), frame.payload.size())));
        std::string entry = line;
        if (frame.payload.size() <= 64) {
          // Small control-plane payloads (ARP, ICMP, registration) enter the
          // digest byte for byte; bulk frames rely on the payload hash.
          entry += " hex=";
          char byte[4];
          for (size_t i = 0; i < frame.payload.size(); ++i) {
            std::snprintf(byte, sizeof(byte), "%02x", frame.payload.data()[i]);
            entry += byte;
          }
        }
        ++digest.frames;
        digest.trace = HashLine(entry, digest.trace);
      };
    };
    tb.mh_eth->SetTap(tap_for("mh_eth"));
    if (tb.mh_radio != nullptr) {
      tb.mh_radio->SetTap(tap_for("mh_radio"));
    }
    tb.ch_dev->SetTap(tap_for("ch"));
  };
  options.on_complete = [&digest](Testbed& tb) {
    for (const auto& [name, value] : tb.metrics.ScalarSnapshot()) {
      char line[256];
      std::snprintf(line, sizeof(line), "%s=%.17g", name.c_str(), value);
      ++digest.metric_count;
      digest.snapshot = HashLine(line, digest.snapshot);
    }
  };

  const RunResult result = RunScenario(spec, options);
  digest.failed = result.failed();
  digest.checks = result.report.checks;
  return digest;
}

// Golden lines keyed by their label (the first word).
std::map<std::string, std::string> LoadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(MSN_DATAPATH_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    golden[line.substr(0, line.find(' '))] = line;
  }
  return golden;
}

void ExpectGolden(const std::map<std::string, std::string>& golden, const std::string& label,
                  const ScenarioSpec& spec) {
  const RunDigest digest = RunAndDigest(spec);
  EXPECT_FALSE(digest.failed) << label << ": oracle failure";
  EXPECT_GT(digest.frames, 0u) << label << ": endpoints saw no traffic at all";
  const auto it = golden.find(label);
  ASSERT_NE(it, golden.end()) << label << ": no golden digest in " << MSN_DATAPATH_DIGESTS
                              << "; this run produced:\n"
                              << digest.Line(label);
  EXPECT_EQ(it->second, digest.Line(label))
      << label << ": frame trace or metric snapshot diverged from the golden digest";
}

TEST(DatapathDiffTest, EveryCorpusScenarioMatchesGoldenDigest) {
  const auto golden = LoadGolden();
  ASSERT_FALSE(golden.empty()) << "no digests read from " << MSN_DATAPATH_DIGESTS;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(MSN_CORPUS_DIR)) {
    if (entry.path().extension() == ".seed") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u) << "corpus went missing from " << MSN_CORPUS_DIR;

  for (const auto& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const auto spec = ScenarioSpec::Parse(buffer.str(), &error);
    ASSERT_TRUE(spec.has_value()) << path << ": " << error;
    ExpectGolden(golden, path.filename().string(), *spec);
  }
}

TEST(DatapathDiffTest, GeneratedScenariosMatchGoldenDigest) {
  // A seed spread on top of the pinned corpus, so shapes the corpus doesn't
  // pin (radio handoffs, overload bursts, mobility corridors) are covered too.
  const auto golden = LoadGolden();
  for (const uint64_t seed : {11ull, 42ull, 1996ull, 20260809ull}) {
    ExpectGolden(golden, "seed-" + std::to_string(seed), GenerateScenario(seed));
  }
}

}  // namespace
}  // namespace msn
