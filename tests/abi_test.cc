// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Tests for kwsc-abi (tools/kwsc_abi): model extraction over in-memory
// sources, probe-source emission, probe-output parsing, manifest rendering
// (determinism, padding runs), the drift-gate diff rules, and — against the
// real tree — a clean, complete model whose format versions agree with the
// committed FORMATS.lock. The byte-level gate around FORMATS.lock itself
// needs the compiled probe and lives in tools/run_abi.sh (CI job abi-gate).

#include "abi.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace kwsc {
namespace abi {
namespace {

#ifndef KWSC_SOURCE_DIR
#error "abi_test requires the KWSC_SOURCE_DIR compile definition"
#endif

std::string Root() { return KWSC_SOURCE_DIR; }

std::string Render(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// A minimal two-file tree: a version table declaring one format, and a
// header with a registered struct, a padded registered struct, the family
// tag, and a SaveFlat body.
std::vector<SourceFile> DemoTree() {
  SourceFile versions;
  versions.path = "src/core/format_versions.h";
  versions.contents = R"(
/// kwsc-abi: format demo tags=KWDM files=core/demo.h
inline constexpr uint32_t kDemoFormatVersion = 3;
)";
  SourceFile demo;
  demo.path = "src/core/demo.h";
  demo.contents = R"(
struct DemoRec {
  uint64_t b;
  uint32_t a;
  uint32_t c[2];
};
KWSC_ABI_STRUCT(DemoRec);

struct PadRec {
  uint32_t x;
  uint64_t y;
};
KWSC_ABI_STRUCT_PADDED_AS(PadDemo, PadRec);

class Demo {
 public:
  static constexpr uint32_t kTag = FlatFamilyTag('K', 'W', 'D', 'M');

  void SaveFlat(std::ostream* out) const {
    FlatArenaWriter writer(kTag);
    const SlabRef items = writer.Slab<uint64_t>(items_);
    writer.Root(DemoRec{items.count, 0, {0, 0}});
    SaveExtras(out);
  }
};
)";
  return {versions, demo};
}

// The measured layout the demo tree's probe would print.
ProbeLayout DemoLayout() {
  ProbeLayout layout;
  layout["DemoRec"].size = 16;
  layout["DemoRec"].align = 8;
  layout["DemoRec"].fields["b"] = {0, 8};
  layout["DemoRec"].fields["a"] = {8, 4};
  layout["DemoRec"].fields["c"] = {12, 4};
  layout["PadDemo"].size = 16;
  layout["PadDemo"].align = 8;
  layout["PadDemo"].fields["x"] = {0, 4};
  layout["PadDemo"].fields["y"] = {8, 8};
  return layout;
}

TEST(AbiModel, ExtractsFormatsStructsSectionsTags) {
  const Model model = BuildModel(DemoTree());
  EXPECT_TRUE(model.errors.empty()) << Render(model.errors);

  ASSERT_EQ(model.formats.size(), 1u);
  EXPECT_EQ(model.formats[0].key, "demo");
  EXPECT_EQ(model.formats[0].constant, "kDemoFormatVersion");
  EXPECT_EQ(model.formats[0].version, 3u);
  ASSERT_EQ(model.formats[0].tags.size(), 1u);
  EXPECT_EQ(model.formats[0].tags[0], "KWDM");

  ASSERT_EQ(model.structs.size(), 2u);  // sorted by alias
  EXPECT_EQ(model.structs[0].alias, "DemoRec");
  EXPECT_FALSE(model.structs[0].padded);
  ASSERT_EQ(model.structs[0].fields.size(), 3u);
  EXPECT_EQ(model.structs[0].fields[0].name, "b");
  EXPECT_EQ(model.structs[0].fields[0].type, "uint64_t");
  EXPECT_EQ(model.structs[0].fields[2].name, "c");
  EXPECT_EQ(model.structs[0].fields[2].array, "[2]");
  EXPECT_EQ(model.structs[1].alias, "PadDemo");
  EXPECT_TRUE(model.structs[1].padded);
  EXPECT_EQ(model.structs[1].type, "PadRec");

  ASSERT_EQ(model.sections.size(), 1u);
  EXPECT_EQ(model.sections[0].function, "Demo::SaveFlat");
  ASSERT_EQ(model.sections[0].ops.size(), 3u);
  EXPECT_EQ(model.sections[0].ops[0].kind, "Slab");
  EXPECT_EQ(model.sections[0].ops[0].detail,
            "const SlabRef items=writer.Slab<uint64_t>(items_)");
  EXPECT_EQ(model.sections[0].ops[1].kind, "Root");
  EXPECT_EQ(model.sections[0].ops[1].detail,
            "writer.Root(DemoRec{items.count,0,{0,0}})");
  EXPECT_EQ(model.sections[0].ops[2].kind, "Sub");
  EXPECT_EQ(model.sections[0].ops[2].detail, "SaveExtras");

  ASSERT_EQ(model.tags.size(), 1u);
  EXPECT_EQ(model.tags[0].tag, "KWDM");
}

TEST(AbiModel, UncoveredContributingFileIsAnError) {
  std::vector<SourceFile> sources = DemoTree();
  sources[1].path = "src/core/other.h";  // no format's files= matches
  const Model model = BuildModel(sources);
  ASSERT_FALSE(model.errors.empty());
  EXPECT_NE(Render(model.errors).find("no `kwsc-abi: format` annotation"),
            std::string::npos)
      << Render(model.errors);
}

TEST(AbiModel, UndeclaredTagIsAnError) {
  std::vector<SourceFile> sources = DemoTree();
  sources[1].contents +=
      "\ninline constexpr uint32_t kOther = FlatFamilyTag('K', 'W', 'Z', "
      "'Z');\n";
  const Model model = BuildModel(sources);
  ASSERT_FALSE(model.errors.empty());
  EXPECT_NE(Render(model.errors).find("'KWZZ' is not declared"),
            std::string::npos)
      << Render(model.errors);
}

TEST(AbiModel, UnresolvedRegistrationIsAnError) {
  std::vector<SourceFile> sources = DemoTree();
  sources[1].contents += "\nKWSC_ABI_STRUCT(NoSuchRec);\n";
  const Model model = BuildModel(sources);
  ASSERT_FALSE(model.errors.empty());
  EXPECT_NE(Render(model.errors).find("no struct definition named "
                                      "'NoSuchRec'"),
            std::string::npos)
      << Render(model.errors);
}

TEST(AbiProbe, SourceCoversEveryRegistrationAndAssertsContract) {
  const Model model = BuildModel(DemoTree());
  const std::string probe = EmitProbeSource(model);
  EXPECT_NE(probe.find("#include \"core/demo.h\""), std::string::npos);
  EXPECT_NE(probe.find("kwsc::KwscAbi_DemoRec"), std::string::npos);
  EXPECT_NE(probe.find("kwsc::KwscAbi_PadDemo"), std::string::npos);
  EXPECT_NE(probe.find("std::endian::native == std::endian::little"),
            std::string::npos);
  EXPECT_NE(probe.find("std::is_trivially_copyable_v<T>"), std::string::npos);
  // Zero-padding sum assert for the non-PADDED struct only.
  EXPECT_NE(probe.find("sizeof(T::b) + sizeof(T::a) + sizeof(T::c) == "
                       "sizeof(T)"),
            std::string::npos);
  EXPECT_EQ(probe.find("sizeof(T::x) + sizeof(T::y) == sizeof(T)"),
            std::string::npos);
  EXPECT_NE(probe.find("offsetof(T, b)"), std::string::npos);
}

TEST(AbiProbe, OutputParsesBackToLayout) {
  std::vector<std::string> errors;
  const ProbeLayout layout = ParseProbeOutput(
      "struct DemoRec size 16 align 8\n"
      "field DemoRec b offset 0 size 8\n"
      "field DemoRec a offset 8 size 4\n",
      &errors);
  EXPECT_TRUE(errors.empty()) << Render(errors);
  ASSERT_EQ(layout.count("DemoRec"), 1u);
  EXPECT_EQ(layout.at("DemoRec").size, 16u);
  EXPECT_EQ(layout.at("DemoRec").align, 8u);
  EXPECT_EQ(layout.at("DemoRec").fields.at("a").offset, 8u);
  EXPECT_EQ(layout.at("DemoRec").fields.at("a").size, 4u);

  errors.clear();
  ParseProbeOutput("struct Broken size x align 8\n", &errors);
  EXPECT_FALSE(errors.empty());
}

TEST(AbiManifest, RendersDeterministicallyWithPaddingRuns) {
  const Model model = BuildModel(DemoTree());
  std::vector<std::string> errors;
  const std::string manifest = RenderManifest(model, DemoLayout(), &errors);
  EXPECT_TRUE(errors.empty()) << Render(errors);
  EXPECT_NE(manifest.find("format demo version 3 constant kDemoFormatVersion"),
            std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("tag KWDM"), std::string::npos);
  EXPECT_NE(manifest.find("struct DemoRec type DemoRec size 16 align 8"),
            std::string::npos);
  EXPECT_NE(manifest.find("field b uint64_t offset 0 size 8"),
            std::string::npos);
  EXPECT_NE(manifest.find("field c uint32_t[2] offset 12 size 4"),
            std::string::npos);
  EXPECT_NE(manifest.find("section src/core/demo.h Demo::SaveFlat"),
            std::string::npos);
  EXPECT_NE(manifest.find("op Slab const SlabRef items=writer.Slab"),
            std::string::npos);
  // The PADDED struct's alignment gap is recorded as an explicit run, so a
  // gap that moves diffs even when the surviving field offsets do not.
  EXPECT_NE(manifest.find("padding offset 4 len 4"), std::string::npos)
      << manifest;

  std::vector<std::string> errors2;
  EXPECT_EQ(manifest, RenderManifest(model, DemoLayout(), &errors2));
}

TEST(AbiManifest, MissingProbeEntryIsAnError) {
  const Model model = BuildModel(DemoTree());
  ProbeLayout layout = DemoLayout();
  layout.erase("PadDemo");
  std::vector<std::string> errors;
  const std::string manifest = RenderManifest(model, layout, &errors);
  EXPECT_TRUE(manifest.empty());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("no probe measurement"), std::string::npos);
}

// --- The drift gate: DiffManifests' versioning contract. -------------------

constexpr char kOldManifest[] =
    "# comment\n"
    "format demo version 3 constant kDemoFormatVersion\n"
    "  struct DemoRec type DemoRec size 16 align 8\n"
    "    field b uint64_t offset 0 size 8\n"
    "    field a uint32_t offset 8 size 4\n";

TEST(AbiDiff, IdenticalManifestsAreClean) {
  const DiffResult result = DiffManifests(kOldManifest, kOldManifest);
  EXPECT_TRUE(result.changes.empty()) << Render(result.changes);
  EXPECT_TRUE(result.violations.empty()) << Render(result.violations);
}

TEST(AbiDiff, ContentChangeWithoutBumpIsAViolation) {
  // The field-reorder / width-change seeds: either way the locked block
  // differs while the version stays put.
  const std::string reordered =
      "format demo version 3 constant kDemoFormatVersion\n"
      "  struct DemoRec type DemoRec size 16 align 8\n"
      "    field a uint32_t offset 0 size 4\n"
      "    field b uint64_t offset 8 size 8\n";
  const DiffResult result = DiffManifests(kOldManifest, reordered);
  EXPECT_FALSE(result.changes.empty());
  ASSERT_EQ(result.violations.size(), 1u) << Render(result.violations);
  EXPECT_NE(result.violations[0].find("version stayed 3"), std::string::npos);
  EXPECT_NE(result.violations[0].find("kDemoFormatVersion"),
            std::string::npos);
}

TEST(AbiDiff, ContentChangeWithBumpIsContractClean) {
  const std::string widened =
      "format demo version 4 constant kDemoFormatVersion\n"
      "  struct DemoRec type DemoRec size 24 align 8\n"
      "    field b uint64_t offset 0 size 8\n"
      "    field a uint64_t offset 8 size 8\n";
  const DiffResult result = DiffManifests(kOldManifest, widened);
  EXPECT_FALSE(result.changes.empty());
  EXPECT_TRUE(result.violations.empty()) << Render(result.violations);
}

TEST(AbiDiff, VersionDecreaseIsAViolation) {
  const std::string decreased =
      "format demo version 2 constant kDemoFormatVersion\n"
      "  struct DemoRec type DemoRec size 16 align 8\n"
      "    field b uint64_t offset 0 size 8\n"
      "    field a uint32_t offset 8 size 4\n";
  const DiffResult result = DiffManifests(kOldManifest, decreased);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations[0].find("went backwards"), std::string::npos);
}

TEST(AbiDiff, RemovedFormatIsAViolationAddedFormatIsNot) {
  const std::string with_extra = std::string(kOldManifest) +
                                 "format extra version 1 constant "
                                 "kExtraFormatVersion\n"
                                 "  tag KWEX\n";
  const DiffResult added = DiffManifests(kOldManifest, with_extra);
  EXPECT_TRUE(added.violations.empty()) << Render(added.violations);
  ASSERT_EQ(added.changes.size(), 1u);
  EXPECT_NE(added.changes[0].find("added"), std::string::npos);

  const DiffResult removed = DiffManifests(with_extra, kOldManifest);
  ASSERT_EQ(removed.violations.size(), 1u) << Render(removed.violations);
  EXPECT_NE(removed.violations[0].find("removed"), std::string::npos);
}

// --- The real tree. --------------------------------------------------------

TEST(AbiRealTree, ModelIsCleanAndProbeCoversEveryRegistration) {
  const Model model = BuildModel(LoadTree(Root()));
  EXPECT_TRUE(model.errors.empty()) << Render(model.errors);
  EXPECT_GE(model.formats.size(), 11u);
  EXPECT_GE(model.structs.size(), 15u);
  EXPECT_GE(model.sections.size(), 20u);
  const std::string probe = EmitProbeSource(model);
  for (const StructInfo& info : model.structs) {
    EXPECT_NE(probe.find("KwscAbi_" + info.alias), std::string::npos)
        << info.alias;
    EXPECT_FALSE(info.fields.empty()) << info.alias;
  }
}

// The committed manifest must agree with the source tree on every format's
// version (full byte-level agreement, which needs the compiled probe, is
// tools/run_abi.sh's job — this catches the stale-constant half in-process).
TEST(AbiRealTree, CommittedManifestVersionsMatchFormatTable) {
  std::ifstream in(Root() + "/FORMATS.lock", std::ios::binary);
  ASSERT_TRUE(in.good()) << "FORMATS.lock missing; run tools/run_abi.sh "
                            "--update";
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string lock = contents.str();
  const Model model = BuildModel(LoadTree(Root()));
  ASSERT_TRUE(model.errors.empty()) << Render(model.errors);
  for (const FormatSpec& spec : model.formats) {
    const std::string header = "format " + spec.key + " version " +
                               std::to_string(spec.version) + " constant " +
                               spec.constant + "\n";
    EXPECT_NE(lock.find(header), std::string::npos)
        << "FORMATS.lock is stale for format '" << spec.key
        << "'; regenerate with tools/run_abi.sh --update";
  }
  // Self-diff of the committed manifest must be clean.
  const DiffResult self = DiffManifests(lock, lock);
  EXPECT_TRUE(self.changes.empty());
  EXPECT_TRUE(self.violations.empty());
}

}  // namespace
}  // namespace abi
}  // namespace kwsc
