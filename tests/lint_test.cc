// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for kwsc-lint (tools/kwsc_lint): every seeded violation in
// tests/lint_fixtures/ must fire as its specific rule-id, the control
// fixture and the real tree must be clean, and the suppression layers
// (inline allow-comments, allowlist entries) must work.

#include "lint.h"

#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace kwsc {
namespace lint {
namespace {

#ifndef KWSC_SOURCE_DIR
#error "lint_test requires the KWSC_SOURCE_DIR compile definition"
#endif

std::string Root() { return KWSC_SOURCE_DIR; }

std::vector<Finding> LintFixture(const std::string& relative_path) {
  Linter linter({});
  linter.SetRoot(Root());
  EXPECT_TRUE(linter.LintFile(Root() + "/" + relative_path))
      << "unreadable fixture: " << relative_path;
  return linter.TakeFindings();
}

std::map<std::string, int> CountByRule(const std::vector<Finding>& findings) {
  std::map<std::string, int> counts;
  for (const Finding& f : findings) ++counts[f.rule];
  return counts;
}

std::string Render(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += f.Format() + "\n";
  return out;
}

TEST(LintFixtures, BadClockFiresDeterminismClock) {
  const auto findings = LintFixture("tests/lint_fixtures/bad_clock.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("determinism-clock"), 4) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
}

TEST(LintFixtures, BadHashOrderFiresHashOrder) {
  const auto findings = LintFixture("tests/lint_fixtures/bad_hash_order.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("hash-order"), 1) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
}

TEST(LintFixtures, BadFlatPairFiresArchiveSymmetryPerMissingSide) {
  const auto findings = LintFixture("tests/lint_fixtures/bad_flat_pair.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("archive-symmetry"), 2) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
  bool missing_load_flat = false;
  bool missing_save_flat = false;
  for (const Finding& f : findings) {
    missing_load_flat =
        missing_load_flat || f.message.find("MissingLoadFlat") == 0;
    missing_save_flat =
        missing_save_flat || f.message.find("MissingSaveFlat") == 0;
    // The control pairs an out-of-line SaveFlat with an inline LoadFlat.
    EXPECT_EQ(f.message.find("FlatControl"), std::string::npos) << f.Format();
  }
  EXPECT_TRUE(missing_load_flat && missing_save_flat) << Render(findings);
}

TEST(LintFixtures, BadOpsBudgetFiresOpsBudget) {
  const auto findings =
      LintFixture("tests/lint_fixtures/core/bad_ops_budget.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("ops-budget"), 1) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
}

TEST(LintFixtures, BadHeaderFiresHygieneRules) {
  const auto findings = LintFixture("tests/lint_fixtures/bad_header.h");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("copyright"), 1) << Render(findings);
  EXPECT_EQ(counts.at("include-guard"), 1) << Render(findings);
  EXPECT_EQ(counts.at("using-namespace"), 1) << Render(findings);
  EXPECT_EQ(counts.size(), 3u) << Render(findings);
}

// --- v2 concurrency + flat-slab rule pack. Each fixture seeds exactly its
// rule's violations; the inline controls (sanctioned idioms) must not fire,
// which the counts.size() == 1 assertion pins down.

TEST(LintFixtures, BadThreadCaptureFiresPerSharedWrite) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/common/bad_thread_capture.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("thread-capture"), 3) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
  // The elementwise (slots[0] = ...) and MutexLock-guarded tasks are clean:
  // every finding names one of the three unsynchronized captures.
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.message.find("'total'") != std::string::npos ||
                f.message.find("'rows'") != std::string::npos ||
                f.message.find("'sum'") != std::string::npos)
        << f.Format();
  }
}

TEST(LintFixtures, BadStaticStateFiresPerMutableStatic) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/common/bad_static_state.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("concurrency-static-state"), 3) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
}

TEST(LintFixtures, BadRawThreadFiresPerEscape) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/common/bad_raw_thread.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("concurrency-raw-thread"), 3) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
}

TEST(LintFixtures, BadRawMutexFiresPerBannedType) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/common/bad_raw_mutex.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("concurrency-raw-mutex"), 4) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
}

TEST(LintFixtures, BadUnguardedMutexFiresOnlyOnContractlessMutex) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/common/bad_unguarded_mutex.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("concurrency-unguarded-mutex"), 1) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
  ASSERT_EQ(findings.size(), 1u);
  // mu2_ carries KWSC_EXCLUDES/KWSC_GUARDED_BY contracts and must be clean.
  EXPECT_NE(findings[0].message.find("'mu_'"), std::string::npos)
      << findings[0].message;
}

TEST(LintFixtures, BadFlatEscapeFiresOnCastAndArithmetic) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/common/bad_flat_escape.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("flat-escape"), 2) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
  bool cast = false;
  bool arithmetic = false;
  for (const Finding& f : findings) {
    cast = cast || f.message.find("reinterpret_cast") != std::string::npos;
    arithmetic =
        arithmetic || f.message.find("pointer arithmetic") != std::string::npos;
  }
  EXPECT_TRUE(cast && arithmetic) << Render(findings);
}

TEST(LintFixtures, BadFlatRetainFiresOnRetainedViews) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/common/bad_flat_retain.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("flat-retain"), 2) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
  // Owning the MmapFile (mmap_) is sanctioned: only the reader and raw
  // pointer members fire.
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.message.find("'reader_'") != std::string::npos ||
                f.message.find("'base_'") != std::string::npos)
        << f.Format();
  }
}

// --- v3 ABI/format rule pack. Same contract: each fixture seeds exactly its
// rule's violations and the inline controls stay clean.

TEST(LintFixtures, BadAbiUnregisteredFiresOnUnlockedSlabElement) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/core/bad_abi_unregistered.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("abi-unregistered-struct"), 1) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
  // The registered record on the same slab path is the control.
  for (const Finding& f : findings) {
    EXPECT_NE(f.message.find("'UnlockedRec'"), std::string::npos)
        << f.Format();
  }
}

TEST(LintFixtures, BadAbiRawWidthFiresPerPlatformWidthField) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/core/bad_abi_raw_width.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("abi-raw-width"), 3) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
  // Field-declaration granularity: the `int` method parameter and the
  // `static constexpr int` member of the control struct must not fire.
  for (const Finding& f : findings) {
    EXPECT_NE(f.message.find("'SloppyHeader'"), std::string::npos)
        << f.Format();
  }
}

// --- epoch/snapshot discipline rule. Both halves must fire — non-API
// access on the EpochPtr itself and in-place mutation of an acquired
// snapshot — while the API-conformant publisher/reader controls (including
// the build-then-Publish mutation of a fresh same-named local) stay clean.

TEST(LintFixtures, BadEpochAccessFiresOutsideTheApi) {
  const auto findings =
      LintFixture("tests/lint_fixtures/src/common/bad_epoch_access.cc");
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("epoch-nonapi-access"), 3) << Render(findings);
  EXPECT_EQ(counts.size(), 1u) << Render(findings);
  bool poke = false;
  bool off_api = false;
  bool snapshot_mutation = false;
  for (const Finding& f : findings) {
    poke = poke || f.message.find("'levels_.current_'") != std::string::npos;
    off_api =
        off_api || f.message.find("'levels_.Reset'") != std::string::npos;
    snapshot_mutation = snapshot_mutation ||
                        (f.message.find("snapshot 'snap'") !=
                             std::string::npos &&
                         f.message.find("push_back") != std::string::npos);
  }
  EXPECT_TRUE(poke && off_api && snapshot_mutation) << Render(findings);
}

TEST(LintFixtures, GoodCleanIsClean) {
  const auto findings = LintFixture("tests/lint_fixtures/good_clean.cc");
  EXPECT_TRUE(findings.empty()) << Render(findings);
}

// The gate the CI lint job enforces: the real tree, under the checked-in
// allowlist, has zero findings. If this fails, either fix the flagged code
// or (for an audited exception) extend tools/lint_allowlist.txt.
TEST(LintRealTree, SrcBenchTestsExamplesAreClean) {
  Linter linter(LoadAllowlistFile(Root() + "/tools/lint_allowlist.txt"));
  linter.SetRoot(Root());
  EXPECT_TRUE(linter.LintTree(Root() + "/src"));
  EXPECT_TRUE(linter.LintTree(Root() + "/bench"));
  EXPECT_TRUE(linter.LintTree(Root() + "/tests"));
  EXPECT_TRUE(linter.LintTree(Root() + "/examples"));
  const auto findings = linter.TakeFindings();
  EXPECT_TRUE(findings.empty()) << Render(findings);
}

TEST(LintRealTree, FixtureDirectoryIsSkippedByTreeScan) {
  Linter linter({});
  linter.SetRoot(Root());
  EXPECT_TRUE(linter.LintTree(Root() + "/tests/lint_fixtures"));
  // Recursion into a directory named lint_fixtures is disabled at the top,
  // but note LintTree is handed the directory itself here; the guard is on
  // child directories, so scan tests/ instead to prove the skip.
  Linter tests_scan(LoadAllowlistFile(Root() + "/tools/lint_allowlist.txt"));
  tests_scan.SetRoot(Root());
  EXPECT_TRUE(tests_scan.LintTree(Root() + "/tests"));
  for (const Finding& f : tests_scan.TakeFindings()) {
    EXPECT_EQ(f.file.find("lint_fixtures"), std::string::npos) << f.Format();
  }
}

TEST(LintSuppression, ParseAllowlist) {
  const auto entries = ParseAllowlist(
      "# comment\n"
      "\n"
      "ops-budget  core/special.cc\n"
      "determinism-clock  bench/  std::time(nullptr)  \n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "ops-budget");
  EXPECT_EQ(entries[0].path_substring, "core/special.cc");
  EXPECT_TRUE(entries[0].line_substring.empty());
  EXPECT_EQ(entries[1].rule, "determinism-clock");
  EXPECT_EQ(entries[1].path_substring, "bench/");
  EXPECT_EQ(entries[1].line_substring, "std::time(nullptr)");
}

TEST(LintSuppression, AllowlistEntrySuppresses) {
  Linter linter(ParseAllowlist("determinism-clock some/file.cc\n"));
  linter.LintSource("some/file.cc",
                    "// Copyright 2026 The kwsc Authors.\n"
                    "void F() { (void)std::rand(); }\n");
  EXPECT_TRUE(linter.TakeFindings().empty());
  // The same source under a non-matching path still fires.
  Linter other(ParseAllowlist("determinism-clock some/file.cc\n"));
  other.LintSource("other/file.cc",
                   "// Copyright 2026 The kwsc Authors.\n"
                   "void F() { (void)std::rand(); }\n");
  EXPECT_EQ(other.TakeFindings().size(), 1u);
}

TEST(LintSuppression, InlineAllowOnSameLineSuppresses) {
  Linter linter({});
  linter.LintSource(
      "x.cc",
      "// Copyright 2026 The kwsc Authors.\n"
      "void F() { (void)std::rand(); }  // kwsc-lint: allow(determinism-clock)\n");
  EXPECT_TRUE(linter.TakeFindings().empty());
}

TEST(LintRules, MemberNamedTimeIsNotFlagged) {
  Linter linter({});
  linter.LintSource("x.cc",
                    "// Copyright 2026 The kwsc Authors.\n"
                    "long F(const Widget& w) { return w.time(); }\n");
  EXPECT_TRUE(linter.TakeFindings().empty());
}

TEST(LintRules, GuardNameIsDerivedFromPath) {
  Linter linter({});
  linter.LintSource("src/core/foo_bar.h",
                    "// Copyright 2026 The kwsc Authors.\n"
                    "#ifndef KWSC_CORE_FOO_BAR_H_\n"
                    "#define KWSC_CORE_FOO_BAR_H_\n"
                    "#endif  // KWSC_CORE_FOO_BAR_H_\n");
  EXPECT_TRUE(linter.TakeFindings().empty());
  Linter outside_src(LoadAllowlistFile("/nonexistent/allowlist"));
  outside_src.LintSource("tests/test_util.h",
                         "// Copyright 2026 The kwsc Authors.\n"
                         "#ifndef KWSC_CORE_FOO_BAR_H_\n"
                         "#define KWSC_CORE_FOO_BAR_H_\n"
                         "#endif\n");
  const auto findings = outside_src.TakeFindings();
  ASSERT_EQ(findings.size(), 1u) << Render(findings);
  EXPECT_EQ(findings[0].rule, "include-guard");
  EXPECT_NE(findings[0].message.find("KWSC_TESTS_TEST_UTIL_H_"),
            std::string::npos)
      << findings[0].message;
}

}  // namespace
}  // namespace lint
}  // namespace kwsc
