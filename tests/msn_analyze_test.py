#!/usr/bin/env python3
"""Self-test for tools/msn_analyze.py.

Covers all four rule families with positive, negative, and suppressed
fixtures, on both backends:

  * Lexical-fallback cases always run (stdlib-only, like msn_lint).
  * AST cases run only where libclang + the python clang bindings are
    installed (CI's static-analysis job; locally they skip with a notice).
    These are the cases the lexical backend cannot express: typedef'd RNG
    engines, aliased time calls, non-header nodiscard declarations.

Registered in ctest as `msn_analyze_test`.
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import msn_analyze  # noqa: E402

CINDEX, _CINDEX_REASON = msn_analyze.load_cindex()
needs_ast = unittest.skipIf(
    CINDEX is None, f"AST backend unavailable: {_CINDEX_REASON}")


class FixtureTree:
    """Builds a throwaway repo-shaped tree to analyze."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="msn_analyze_test_")
        self.root = Path(self._tmp.name)

    def write(self, rel: str, content: str) -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        return path

    def cleanup(self):
        self._tmp.cleanup()


def rules_of(findings):
    return sorted(f.rule for f in findings)


class LexicalBackendTest(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def run_lexical(self, paths=("src",)):
        return msn_analyze.run_lexical(self.tree.root, list(paths))

    # --- determinism/unordered-iteration -------------------------------------

    def test_range_for_over_unordered_member_flagged(self):
        self.tree.write("src/node/bad.h",
                        "#include <unordered_map>\n"
                        "struct T {\n"
                        "  void Walk() { for (auto& kv : table_) { (void)kv; } }\n"
                        "  std::unordered_map<int, int> table_;\n"
                        "};\n")
        self.assertEqual(rules_of(self.run_lexical()),
                         ["determinism/unordered-iteration"])

    def test_cross_file_unordered_iteration_flagged(self):
        # The member is declared in the header; the traversal lives in the
        # .cc. The lexical backend collects declarations across all scanned
        # files before flagging loops.
        self.tree.write("src/node/t.h",
                        "#include <unordered_map>\n"
                        "struct T { std::unordered_map<int, int> table_; };\n")
        self.tree.write("src/node/t.cc",
                        "void Walk(T& t) { for (auto& kv : t.table_) { (void)kv; } }\n")
        self.assertEqual(rules_of(self.run_lexical()),
                         ["determinism/unordered-iteration"])

    def test_begin_on_unordered_flagged(self):
        self.tree.write("src/node/bad.cc",
                        "#include <unordered_set>\n"
                        "std::unordered_set<int> live_;\n"
                        "auto F() { return live_.begin(); }\n")
        self.assertEqual(rules_of(self.run_lexical()),
                         ["determinism/unordered-iteration"])

    def test_ordered_map_iteration_ok(self):
        self.tree.write("src/node/ok.cc",
                        "#include <map>\n"
                        "std::map<int, int> table_;\n"
                        "void Walk() { for (auto& kv : table_) { (void)kv; } }\n")
        self.assertEqual(self.run_lexical(), [])

    def test_unordered_point_queries_ok(self):
        self.tree.write("src/node/ok.cc",
                        "#include <unordered_map>\n"
                        "std::unordered_map<int, int> cache_;\n"
                        "bool Has(int k) { return cache_.find(k) != cache_.end(); }\n")
        self.assertEqual(self.run_lexical(), [])

    def test_unordered_iteration_allow_comment(self):
        self.tree.write("src/node/ok.cc",
                        "#include <unordered_map>\n"
                        "std::unordered_map<int, int> table_;\n"
                        "int Sum() {\n"
                        "  int s = 0;\n"
                        "  // Order-insensitive reduction.\n"
                        "  // msn-analyze: allow(determinism/unordered-iteration)\n"
                        "  for (auto& kv : table_) s += kv.second;\n"
                        "  return s;\n"
                        "}\n")
        self.assertEqual(self.run_lexical(), [])

    # --- determinism/wall-clock + ambient-rng --------------------------------

    def test_wall_clock_flagged(self):
        self.tree.write("src/node/bad.cc", "long t = time(nullptr);\n")
        self.assertEqual(rules_of(self.run_lexical()), ["determinism/wall-clock"])

    def test_chrono_clocks_flagged(self):
        self.tree.write("src/node/bad.cc",
                        "auto t = std::chrono::steady_clock::now();\n"
                        "auto u = std::chrono::system_clock::now();\n")
        self.assertEqual(rules_of(self.run_lexical()),
                         ["determinism/wall-clock"] * 2)

    def test_wall_clock_in_comment_not_flagged(self):
        self.tree.write("src/node/ok.cc",
                        "// Never call time(nullptr) here; the sim clock rules.\n"
                        "int f();\n")
        self.assertEqual(self.run_lexical(), [])

    def test_identifier_suffix_time_not_flagged(self):
        self.tree.write("src/node/ok.cc", "set_bring_up_time(d); auto x = bring_up_time();\n")
        self.assertEqual(self.run_lexical(), [])

    def test_ambient_rng_flagged(self):
        self.tree.write("src/node/bad.cc", "std::mt19937 gen(42);\n")
        self.assertEqual(rules_of(self.run_lexical()), ["determinism/ambient-rng"])

    def test_std_rand_and_random_device_flagged(self):
        self.tree.write("src/link/bad.cc",
                        "int a = std::rand();\n"
                        "std::random_device rd;\n")
        self.assertEqual(rules_of(self.run_lexical()),
                         ["determinism/ambient-rng"] * 2)

    def test_rng_allow_comment_on_previous_line(self):
        self.tree.write("src/link/ok.cc",
                        "// msn-analyze: allow(determinism/ambient-rng)\n"
                        "std::mt19937 gen(seed);\n")
        self.assertEqual(self.run_lexical(), [])

    def test_sim_clock_and_msn_rng_ok(self):
        self.tree.write("src/node/ok.cc",
                        "auto now = sim_.Now();\n"
                        "double d = rng_.UniformDouble();\n")
        self.assertEqual(self.run_lexical(), [])

    def test_wall_clock_allow_comment(self):
        self.tree.write("src/node/ok.cc",
                        "long t = time(nullptr);  // msn-analyze: allow(determinism/wall-clock)\n")
        self.assertEqual(self.run_lexical(), [])

    # --- api/nodiscard (lexical: headers only) --------------------------------

    def test_fallible_bool_in_header_flagged(self):
        self.tree.write("src/net/bad.h", "struct P { bool ParseFrom(int x); };\n")
        self.assertEqual(rules_of(self.run_lexical()), ["api/nodiscard"])

    def test_optional_return_in_header_flagged(self):
        self.tree.write("src/net/bad.h",
                        "#include <optional>\n"
                        "std::optional<int> TryDecode(int x);\n")
        self.assertEqual(rules_of(self.run_lexical()), ["api/nodiscard"])

    def test_result_suffix_type_flagged(self):
        self.tree.write("src/net/bad.h", "ParseResult ParseHeader(int x);\n")
        self.assertEqual(rules_of(self.run_lexical()), ["api/nodiscard"])

    def test_nodiscard_present_ok(self):
        self.tree.write("src/net/ok.h",
                        "struct P {\n"
                        "  [[nodiscard]] bool ParseFrom(int x);\n"
                        "  [[nodiscard]]\n"
                        "  bool TrySend();\n"
                        "};\n")
        self.assertEqual(self.run_lexical(), [])

    def test_non_fallible_bool_name_ok(self):
        self.tree.write("src/net/ok.h", "struct P { bool empty() const; };\n")
        self.assertEqual(self.run_lexical(), [])

    def test_cc_definition_without_attribute_ok(self):
        # The attribute may legally live on the header declaration only, so
        # the lexical backend never judges .cc files.
        self.tree.write("src/net/ok.cc", "bool Parser::ParseFrom(int x) { return x > 0; }\n")
        self.assertEqual(self.run_lexical(), [])

    def test_nodiscard_allow_comment(self):
        self.tree.write("src/net/ok.h",
                        "// msn-analyze: allow(api/nodiscard)\n"
                        "bool SendBeacon(int x);\n")
        self.assertEqual(self.run_lexical(), [])

    # --- lifetime/packet-span -------------------------------------------------

    def test_byte_pointer_member_flagged(self):
        self.tree.write("src/node/bad.h",
                        "#include <cstdint>\n"
                        "struct View { const uint8_t* payload_; };\n")
        self.assertEqual(rules_of(self.run_lexical()), ["lifetime/packet-span"])

    def test_byte_span_member_flagged(self):
        self.tree.write("src/node/bad.h",
                        "#include <cstdint>\n#include <span>\n"
                        "struct View { std::span<const uint8_t> body_; };\n")
        self.assertEqual(rules_of(self.run_lexical()), ["lifetime/packet-span"])

    def test_owning_vector_member_ok(self):
        self.tree.write("src/node/ok.h",
                        "#include <cstdint>\n#include <vector>\n"
                        "struct Copy { std::vector<uint8_t> payload_; };\n")
        self.assertEqual(self.run_lexical(), [])

    def test_packet_span_allow_comment(self):
        self.tree.write("src/node/ok.h",
                        "#include <cstdint>\n"
                        "struct View {\n"
                        "  // Transient parsing view; caller outlives it.\n"
                        "  const uint8_t* data_;  // msn-analyze: allow(lifetime/packet-span)\n"
                        "};\n")
        self.assertEqual(self.run_lexical(), [])

    # --- scope ---------------------------------------------------------------

    def test_files_outside_src_not_flagged(self):
        self.tree.write("tests/bad.cc", "long t = time(nullptr);\n")
        self.assertEqual(self.run_lexical(["tests"]), [])


@needs_ast
class AstBackendTest(unittest.TestCase):
    """Cases only a real AST can get right: aliases, typedefs, canonical
    types, cross-declaration [[nodiscard]]."""

    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def run_ast(self, rel_paths):
        return msn_analyze.run_ast(CINDEX, self.tree.root, None,
                                   list(rel_paths), [], verbose=False)

    def test_typedefed_rng_engine_flagged(self):
        # std::mt19937 resolves to mersenne_twister_engine<...> only through
        # the canonical type — the regex fallback needs the literal spelling,
        # an alias-of-an-alias defeats it.
        self.tree.write("src/node/bad.cc",
                        "#include <random>\n"
                        "using Gen = std::mt19937;\n"
                        "using MyGen = Gen;\n"
                        "MyGen gen;\n")
        self.assertIn("determinism/ambient-rng",
                      rules_of(self.run_ast(["src/node/bad.cc"])))

    def test_aliased_time_call_flagged(self):
        self.tree.write("src/node/bad.cc",
                        "#include <ctime>\n"
                        "namespace chron = std;\n"
                        "long F() { return chron::time(nullptr); }\n")
        self.assertIn("determinism/wall-clock",
                      rules_of(self.run_ast(["src/node/bad.cc"])))

    def test_chrono_clock_now_flagged(self):
        self.tree.write("src/node/bad.cc",
                        "#include <chrono>\n"
                        "auto F() { return std::chrono::steady_clock::now(); }\n")
        self.assertIn("determinism/wall-clock",
                      rules_of(self.run_ast(["src/node/bad.cc"])))

    def test_range_for_over_aliased_unordered_flagged(self):
        # The container type hides behind an alias; the lexical backend's
        # declaration scan cannot see through it.
        self.tree.write("src/node/bad.cc",
                        "#include <unordered_map>\n"
                        "using Table = std::unordered_map<int, int>;\n"
                        "Table table;\n"
                        "int Sum() { int s = 0; for (auto& kv : table) s += kv.second; return s; }\n")
        self.assertIn("determinism/unordered-iteration",
                      rules_of(self.run_ast(["src/node/bad.cc"])))

    def test_sorted_map_behind_alias_ok(self):
        self.tree.write("src/node/ok.cc",
                        "#include <map>\n"
                        "using Table = std::map<int, int>;\n"
                        "Table table;\n"
                        "int Sum() { int s = 0; for (auto& kv : table) s += kv.second; return s; }\n")
        findings = self.run_ast(["src/node/ok.cc"])
        self.assertNotIn("determinism/unordered-iteration", rules_of(findings))

    def test_nodiscard_on_declaration_covers_definition(self):
        # Attribute on the header declaration; definition without it is fine
        # — the AST backend judges the canonical declaration.
        self.tree.write("src/net/p.h",
                        "#ifndef P_H\n#define P_H\n"
                        "struct P { [[nodiscard]] bool ParseFrom(int x); };\n"
                        "#endif\n")
        self.tree.write("src/net/p.cc",
                        '#include "src/net/p.h"\n'
                        "bool P::ParseFrom(int x) { return x > 0; }\n")
        findings = self.run_ast(["src/net/p.cc"])
        self.assertNotIn("api/nodiscard", rules_of(findings))

    def test_missing_nodiscard_found_via_definition_tu(self):
        self.tree.write("src/net/p.h",
                        "#ifndef P_H\n#define P_H\n"
                        "struct P { bool ParseFrom(int x); };\n"
                        "#endif\n")
        self.tree.write("src/net/p.cc",
                        '#include "src/net/p.h"\n'
                        "bool P::ParseFrom(int x) { return x > 0; }\n")
        findings = self.run_ast(["src/net/p.cc"])
        self.assertIn("api/nodiscard", rules_of(findings))
        # And the finding lands on the header declaration, not the .cc.
        f = next(x for x in findings if x.rule == "api/nodiscard")
        self.assertTrue(str(f.path).endswith("p.h"))

    def test_uint8_member_behind_typedef_flagged(self):
        self.tree.write("src/node/bad.cc",
                        "#include <cstdint>\n"
                        "using byte_t = uint8_t;\n"
                        "struct View { const byte_t* payload_; };\n")
        self.assertIn("lifetime/packet-span",
                      rules_of(self.run_ast(["src/node/bad.cc"])))

    def test_allow_comment_respected_in_ast_mode(self):
        self.tree.write("src/node/ok.cc",
                        "#include <cstdint>\n"
                        "struct View {\n"
                        "  const uint8_t* data_;  // msn-analyze: allow(lifetime/packet-span)\n"
                        "};\n")
        findings = self.run_ast(["src/node/ok.cc"])
        self.assertNotIn("lifetime/packet-span", rules_of(findings))


class CliTest(unittest.TestCase):
    TOOL = REPO_ROOT / "tools" / "msn_analyze.py"

    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def run_cli(self, *args):
        return subprocess.run([sys.executable, str(self.TOOL), *args],
                              capture_output=True, text=True)

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in msn_analyze.RULES:
            self.assertIn(rule, proc.stdout)

    def test_exit_codes(self):
        self.tree.write("src/node/bad.cc", "long t = time(nullptr);\n")
        dirty = self.run_cli("--root", str(self.tree.root),
                             "--backend", "lexical", "src")
        self.assertEqual(dirty.returncode, 1)
        self.assertIn("[determinism/wall-clock]", dirty.stdout)

        self.tree.write("src/node/bad.cc", "int f() { return 1; }\n")
        clean = self.run_cli("--root", str(self.tree.root),
                             "--backend", "lexical", "src")
        self.assertEqual(clean.returncode, 0)

        missing = self.run_cli("--root", str(self.tree.root), "nope/")
        self.assertEqual(missing.returncode, 2)

    @unittest.skipUnless(CINDEX is None, "libclang present; degrade path inert")
    def test_require_ast_fails_loudly_without_libclang(self):
        self.tree.write("src/node/ok.cc", "int f() { return 1; }\n")
        proc = self.run_cli("--root", str(self.tree.root), "--require-ast", "src")
        self.assertEqual(proc.returncode, 3)
        self.assertIn("AST backend unavailable", proc.stderr)

    def test_auto_degrades_with_notice(self):
        self.tree.write("src/node/ok.cc", "int f() { return 1; }\n")
        proc = self.run_cli("--root", str(self.tree.root), "src")
        self.assertEqual(proc.returncode, 0)
        if CINDEX is None:
            self.assertIn("lexical fallback", proc.stderr)

    def test_repo_src_is_clean(self):
        # The real tree must stay clean under whichever backend this
        # environment provides — the same gate ctest and CI run.
        proc = self.run_cli("src")
        self.assertEqual(proc.returncode, 0,
                         f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")


if __name__ == "__main__":
    unittest.main()
