// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scanner.h"

namespace kwsc {
namespace lint {

std::string Finding::Format() const {
  std::ostringstream out;
  out << file << ":" << line << ": " << rule << ": " << message;
  return out.str();
}

std::vector<AllowEntry> ParseAllowlist(const std::string& text) {
  std::vector<AllowEntry> entries;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    AllowEntry entry;
    if (!(fields >> entry.rule >> entry.path_substring)) continue;
    // The rest of the line (trimmed) is the optional line-substring, so it
    // may itself contain spaces.
    std::string rest;
    std::getline(fields, rest);
    const size_t begin = rest.find_first_not_of(" \t");
    if (begin != std::string::npos) {
      const size_t end = rest.find_last_not_of(" \t");
      entry.line_substring = rest.substr(begin, end - begin + 1);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<AllowEntry> LoadAllowlistFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return ParseAllowlist(text.str());
}

// ---------------------------------------------------------------------------
// Linter internals.
// ---------------------------------------------------------------------------

namespace {

std::string ExpectedGuard(const std::string& path) {
  std::string trimmed = path;
  if (StartsWith(trimmed, "src/")) trimmed = trimmed.substr(4);
  std::string guard = "KWSC_";
  for (char c : trimmed) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

/// Methods that mutate their receiver; a call through a by-reference capture
/// inside a pool task is a write to shared state.
bool IsMutatingMethod(const std::string& name) {
  static const std::set<std::string> kMutating = {
      "push_back", "emplace_back", "pop_back", "push_front", "pop_front",
      "insert",    "emplace",      "erase",    "clear",      "resize",
      "reserve",   "assign",       "append",   "Record",     "Merge"};
  return kMutating.count(name) > 0;
}

/// True when the identifier at `at` is the head of an access path (not
/// `x.ident` / `x->ident` / `ns::ident` — there the sharing question belongs
/// to the path's root, which gets its own check at its own position).
bool IsAccessRoot(const std::vector<Token>& toks, size_t at) {
  if (at == 0) return true;
  const std::string& prev = toks[at - 1].text;
  return prev != "." && prev != "->" && prev != "::";
}

/// True when the identifier at `at` is written: plain or compound
/// assignment, increment/decrement, or a mutating method call. `x[i] = ...`
/// deliberately does not count — elementwise writes into pre-sized slots are
/// the library's sanctioned disjoint-sharing idiom.
bool IsWrite(const std::vector<Token>& toks, size_t at, size_t end) {
  if (at + 1 >= end) return false;
  const std::string& next = toks[at + 1].text;
  // `x = ...` but not `x == ...`.
  if (next == "=" && (at + 2 >= end || toks[at + 2].text != "=")) return true;
  // Compound assignment: `x += ...`, `x |= ...`, ...
  static const std::set<std::string> kCompound = {"+", "-", "*", "/", "%",
                                                  "&", "|", "^"};
  if (kCompound.count(next) > 0 && at + 2 < end &&
      toks[at + 2].text == "=" &&
      (at + 3 >= end || toks[at + 3].text != "=")) {
    return true;
  }
  // `x++` / `++x` (the lexer splits the operator into two tokens).
  if (next == "+" && at + 2 < end && toks[at + 2].text == "+") return true;
  if (next == "-" && at + 2 < end && toks[at + 2].text == "-") return true;
  if (at >= 2 && toks[at - 1].text == toks[at - 2].text &&
      (toks[at - 1].text == "+" || toks[at - 1].text == "-")) {
    return true;
  }
  // Mutating method on the captured object itself.
  if ((next == "." || next == "->") && at + 3 < end &&
      toks[at + 2].kind == Token::kIdent &&
      IsMutatingMethod(toks[at + 2].text) && toks[at + 3].text == "(") {
    return true;
  }
  return false;
}

/// The concurrency + flat-slab rule pack, scoped to library code (any path
/// containing "src/" — which includes the seeded fixtures under
/// tests/lint_fixtures/src/). `report` is (line, rule, message).
template <typename ReportFn>
void LintConcurrencyAndFlat(const std::string& path,
                            const std::vector<Token>& toks,
                            const ReportFn& report) {
  if (path.find("src/") == std::string::npos) return;
  // The vocabulary definitions themselves: the mutex wrapper spells the raw
  // std types once, the annotation header is all macros.
  if (path.find("common/mutex.h") != std::string::npos) return;
  if (path.find("common/thread_annotations.h") != std::string::npos) return;
  const bool pool_file = path.find("common/thread_pool.") != std::string::npos;
  const bool arena_file = path.find("common/flat_arena.") != std::string::npos;
  const bool state_scope = path.find("src/core/") != std::string::npos ||
                           path.find("src/common/") != std::string::npos;

  const DeclIndex decls = BuildDeclIndex(toks);

  // --- concurrency-unguarded-mutex ----------------------------------------
  for (const auto& [name, line] : decls.mutex_members) {
    if (decls.annotated.count(name) > 0) continue;
    report(line, "concurrency-unguarded-mutex",
           "Mutex member '" + name +
               "' is never named by a thread-safety annotation; state it "
               "guards must say so (KWSC_GUARDED_BY) and methods taking it "
               "must declare it (KWSC_EXCLUDES/KWSC_REQUIRES), or clang "
               "-Wthread-safety has nothing to check");
  }

  // --- flat-retain ---------------------------------------------------------
  if (!arena_file) {
    for (const auto& [name, line] : decls.retained_members) {
      report(line, "flat-retain",
             "member '" + name +
                 "' retains a view into a mapped region; pointers and "
                 "readers over MmapFile memory must not outlive the scope "
                 "that derived them — store the MmapFile (and offsets) and "
                 "re-derive through FlatArenaReader accessors");
    }
  }

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];

    // --- concurrency-raw-mutex ---------------------------------------------
    if (tok.kind == Token::kIdent && tok.text == "std" &&
        i + 2 < toks.size() && toks[i + 1].text == "::" &&
        toks[i + 2].kind == Token::kIdent) {
      static const std::set<std::string> kRawSync = {
          "mutex",         "recursive_mutex",
          "timed_mutex",   "recursive_timed_mutex",
          "shared_mutex",  "shared_timed_mutex",
          "condition_variable", "condition_variable_any",
          "lock_guard",    "unique_lock",
          "scoped_lock",   "shared_lock"};
      if (kRawSync.count(toks[i + 2].text) > 0) {
        report(tok.line, "concurrency-raw-mutex",
               "raw std::" + toks[i + 2].text +
                   " bypasses the annotated Mutex/MutexLock/CondVar "
                   "vocabulary (common/mutex.h); thread-safety analysis "
                   "cannot see locks it does not know");
      }
      // --- concurrency-raw-thread (std spelling) ---------------------------
      if (!pool_file &&
          (toks[i + 2].text == "thread" || toks[i + 2].text == "jthread")) {
        report(tok.line, "concurrency-raw-thread",
               "raw std::" + toks[i + 2].text +
                   " outside common/thread_pool.*; all parallelism goes "
                   "through ThreadPool/TaskGroup so fork/join nesting, "
                   "helping waits, and shutdown stay in one audited place");
      }
    }

    // --- concurrency-raw-thread (pthread / detach) -------------------------
    if (!pool_file && tok.kind == Token::kIdent &&
        StartsWith(tok.text, "pthread_")) {
      report(tok.line, "concurrency-raw-thread",
             "'" + tok.text +
                 "' outside common/thread_pool.*; all parallelism goes "
                 "through ThreadPool/TaskGroup");
    }
    if (!pool_file && (tok.text == "." || tok.text == "->") &&
        i + 2 < toks.size() && toks[i + 1].text == "detach" &&
        toks[i + 2].text == "(") {
      report(toks[i + 1].line, "concurrency-raw-thread",
             "detach() abandons a running thread; kwsc parallelism is "
             "strictly fork/join (TaskGroup::Wait joins everything)");
    }

    // --- concurrency-static-state ------------------------------------------
    if (state_scope && tok.kind == Token::kIdent && tok.text == "static") {
      bool safe = false;
      size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (t == "const" || t == "constexpr" || t == "constinit" ||
            t == "atomic" || t == "atomic_flag" || t == "thread_local" ||
            t == "Mutex" ||
            ThreadAnnotationMacros().count(t) > 0) {
          safe = true;
        }
        if (t == ";" || t == "=" || t == "(" || t == "{") break;
      }
      // A '(' or '{' terminator is a function (or ctor-style init the rule
      // cannot judge); ';' and '=' terminate an object declaration.
      if (j < toks.size() && (toks[j].text == ";" || toks[j].text == "=") &&
          !safe) {
        report(tok.line, "concurrency-static-state",
               "mutable static state in core/common is shared across every "
               "thread; make it const/constexpr, std::atomic, thread_local, "
               "or guard it with an annotated Mutex (KWSC_GUARDED_BY)");
      }
    }

    // --- flat-escape: reinterpret_cast over mapped memory --------------------
    if (!arena_file && tok.kind == Token::kIdent &&
        tok.text == "reinterpret_cast" && !decls.mapped.empty()) {
      size_t stmt_begin = i;
      while (stmt_begin > 0 && toks[stmt_begin - 1].text != ";" &&
             toks[stmt_begin - 1].text != "{" &&
             toks[stmt_begin - 1].text != "}") {
        --stmt_begin;
      }
      size_t stmt_end = i;
      while (stmt_end < toks.size() && toks[stmt_end].text != ";" &&
             toks[stmt_end].text != "{") {
        ++stmt_end;
      }
      for (size_t j = stmt_begin; j < stmt_end; ++j) {
        if (toks[j].kind == Token::kIdent &&
            (decls.mapped.count(toks[j].text) > 0 ||
             decls.byte_ptrs.count(toks[j].text) > 0)) {
          report(tok.line, "flat-escape",
                 "reinterpret_cast over mapped-file memory ('" +
                     toks[j].text +
                     "'); raw reinterpretation of MmapFile/SlabRef bytes "
                     "belongs inside FlatArenaReader's bounds-checked "
                     "accessors (common/flat_arena.h)");
          break;
        }
      }
    }

    // --- flat-escape: pointer arithmetic on byte views ----------------------
    if (!arena_file && tok.kind == Token::kIdent &&
        decls.byte_ptrs.count(tok.text) > 0 && IsAccessRoot(toks, i) &&
        i + 1 < toks.size() &&
        (toks[i + 1].text == "+" || toks[i + 1].text == "-")) {
      report(tok.line, "flat-escape",
             "pointer arithmetic on '" + tok.text +
                 "', a std::byte view of mapped memory; offsets into a flat "
                 "arena are SlabRefs resolved by FlatArenaReader, not hand "
                 "arithmetic");
    }

    // --- thread-capture ------------------------------------------------------
    // A lambda submitted to the pool: Run([...]...) / Enqueue([...]...).
    if (tok.kind != Token::kIdent ||
        (tok.text != "Run" && tok.text != "Enqueue") || i + 2 >= toks.size() ||
        toks[i + 1].text != "(" || toks[i + 2].text != "[") {
      continue;
    }
    const size_t cap_open = i + 2;
    const size_t cap_close = MatchingClose(toks, cap_open);
    if (cap_close >= toks.size()) continue;

    // Parse the capture list into by-ref names / by-value names / defaults.
    bool default_ref = false;
    std::set<std::string> by_ref;
    std::set<std::string> by_val;
    {
      size_t item_begin = cap_open + 1;
      int depth = 0;
      for (size_t j = cap_open + 1; j <= cap_close; ++j) {
        const std::string& t = toks[j].text;
        if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
        if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
        const bool item_end =
            j == cap_close || (depth == 0 && toks[j].text == ",");
        if (!item_end) continue;
        if (item_begin < j) {
          const Token& first = toks[item_begin];
          if (first.text == "&" && item_begin + 1 < j &&
              toks[item_begin + 1].kind == Token::kIdent) {
            by_ref.insert(toks[item_begin + 1].text);
          } else if (first.text == "&" && item_begin + 1 == j) {
            default_ref = true;
          } else if (first.kind == Token::kIdent && first.text != "this") {
            by_val.insert(first.text);
          }
        }
        item_begin = j + 1;
      }
    }
    if (by_ref.empty() && !default_ref) continue;

    // Lambda parameters and the body.
    std::set<std::string> locals;
    size_t j = cap_close + 1;
    if (j < toks.size() && toks[j].text == "(") {
      const size_t params_close = MatchingClose(toks, j);
      for (size_t k = j + 1; k < params_close && k < toks.size(); ++k) {
        if (toks[k].kind == Token::kIdent) locals.insert(toks[k].text);
      }
      j = params_close + 1;
    }
    while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
    if (j >= toks.size() || toks[j].text != "{") continue;
    const size_t body_open = j;
    const size_t body_close = MatchingClose(toks, body_open);

    // A body that takes a lock is synchronizing on its own; the annotations
    // (and TSan) judge whether the locking is right.
    if (RangeContainsIdent(toks, body_open, body_close, "MutexLock")) {
      continue;
    }

    // Body-local declarations (heuristic: `Type name`, `auto name`,
    // `Type& name`). Only consulted for a default [&] capture, where every
    // non-local write target is suspect.
    static const std::set<std::string> kNotTypes = {
        "return", "co_return", "delete", "throw",  "case", "goto",
        "new",    "else",      "do",     "break",  "continue"};
    for (size_t k = body_open + 1; k < body_close && k < toks.size(); ++k) {
      if (toks[k].kind != Token::kIdent) continue;
      const Token& prev = toks[k - 1];
      const bool after_type =
          prev.kind == Token::kIdent && kNotTypes.count(prev.text) == 0;
      const bool after_ref_of_type =
          (prev.text == "&" || prev.text == "*") && k >= 2 &&
          toks[k - 2].kind == Token::kIdent &&
          kNotTypes.count(toks[k - 2].text) == 0;
      if (after_type || after_ref_of_type) locals.insert(toks[k].text);
    }

    std::set<std::string> reported;
    for (size_t k = body_open + 1; k < body_close && k < toks.size(); ++k) {
      if (toks[k].kind != Token::kIdent) continue;
      const std::string& name = toks[k].text;
      if (reported.count(name) > 0) continue;
      if (!IsAccessRoot(toks, k)) continue;
      const bool candidate =
          by_ref.count(name) > 0 ||
          (default_ref && locals.count(name) == 0 &&
           by_val.count(name) == 0 && name != "this");
      if (!candidate || !IsWrite(toks, k, body_close)) continue;
      reported.insert(name);
      report(toks[k].line, "thread-capture",
             "'" + name +
                 "' is captured by reference into a ThreadPool/TaskGroup "
                 "task and written without synchronization; shared task "
                 "state must be disjoint per task (pre-sized slots), "
                 "guarded by an annotated Mutex, or allowlisted with a "
                 "safety argument");
    }
  }
}

/// The v3 ABI/format rule pack (scoped to paths containing src/, like the
/// concurrency pack — which includes the seeded fixtures under
/// tests/lint_fixtures/src/). Judges the format-contract discipline that
/// tools/kwsc_abi locks tree-wide, at per-file granularity: persisted
/// structs must be registered, and registered structs must spell fixed
/// widths.
template <typename ReportFn>
void LintAbiContracts(const std::string& path, const std::vector<Token>& toks,
                      const ReportFn& report) {
  if (path.find("src/") == std::string::npos) return;
  // The registration macros and the version table define the vocabulary.
  if (path.find("common/abi.h") != std::string::npos) return;
  if (path.find("core/format_versions.h") != std::string::npos) return;

  // Names appearing in any KWSC_ABI_STRUCT* registration argument list.
  // Deliberately coarse (every identifier in the list counts): naming a type
  // anywhere in a registration is what puts it into FORMATS.lock.
  std::set<std::string> registered;
  // Struct definitions in this file: name -> (def line, body token range).
  struct StructDef {
    int line;
    size_t body_open;
    size_t body_close;
  };
  std::map<std::string, StructDef> defs;
  // Element types named by slab/root accessors (`Slab<T>`, `Root<T>`,
  // `SlabOk<T>`, `RootOk<T>`): the set of types reinterpreted from mapped
  // bytes in this file.
  std::set<std::string> mapped_types;

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != Token::kIdent) continue;
    if (StartsWith(tok.text, "KWSC_ABI_STRUCT") && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      const size_t close = MatchingClose(toks, i + 1);
      for (size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (toks[j].kind == Token::kIdent) registered.insert(toks[j].text);
      }
      continue;
    }
    if (tok.text == "struct" && i + 2 < toks.size() &&
        (i == 0 || (toks[i - 1].text != "enum" && toks[i - 1].text != "<" &&
                    toks[i - 1].text != ",")) &&
        toks[i + 1].kind == Token::kIdent && toks[i + 2].text == "{") {
      const size_t close = MatchingClose(toks, i + 2);
      defs.emplace(toks[i + 1].text,
                   StructDef{toks[i + 1].line, i + 2, close});
      continue;
    }
    if ((tok.text == "Slab" || tok.text == "SlabOk" || tok.text == "Root" ||
         tok.text == "RootOk") &&
        i + 1 < toks.size() && toks[i + 1].text == "<") {
      const size_t close = MatchingClose(toks, i + 1);
      for (size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (toks[j].kind == Token::kIdent) mapped_types.insert(toks[j].text);
      }
    }
  }

  // --- abi-unregistered-struct ---------------------------------------------
  for (const auto& [name, def] : defs) {
    if (mapped_types.count(name) == 0) continue;
    if (registered.count(name) > 0) continue;
    report(def.line, "abi-unregistered-struct",
           "struct '" + name +
               "' is reinterpreted from mapped bytes (Slab/Root element) but "
               "has no KWSC_ABI_STRUCT registration in this file; register "
               "it (common/abi.h) so kwsc-abi locks its layout in "
               "FORMATS.lock");
  }

  // --- abi-raw-width -------------------------------------------------------
  // Inside a registered struct's definition, every *field* must spell a
  // fixed width: platform-width integer spellings make sizeof/offsetof a
  // function of the host, which is exactly what a persisted layout must not
  // be. The scan is field-declaration-granular — member functions (any decl
  // containing '('), static members, and using-aliases are not layout.
  static const std::set<std::string> kRawWidth = {
      "int",      "long",      "short",     "unsigned", "signed",
      "size_t",   "ssize_t",   "ptrdiff_t", "intptr_t", "uintptr_t",
      "wchar_t",  "time_t",    "off_t"};
  static const std::set<std::string> kNotFields = {"static", "using", "friend",
                                                   "template", "typedef"};
  for (const auto& [name, def] : defs) {
    if (registered.count(name) == 0) continue;
    size_t decl_begin = def.body_open + 1;
    bool function_like = false;
    int depth = 0;
    for (size_t j = def.body_open + 1;
         j < def.body_close && j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "(" || t == "[") ++depth;
      if (t == ")" || t == "]") --depth;
      if (t == "(") function_like = true;
      if (t == "{" && depth == 0) {
        if (function_like) {
          // A member-function body: skip it whole and start a fresh decl.
          j = MatchingClose(toks, j);
          decl_begin = j + 1;
          function_like = false;
          continue;
        }
        ++depth;  // Brace initializer on a field: part of the decl.
        continue;
      }
      if (t == "}" && depth > 0) {
        --depth;
        continue;
      }
      if (t != ";" || depth != 0) continue;
      // One declaration in [decl_begin, j).
      if (!function_like && decl_begin < j &&
          kNotFields.count(toks[decl_begin].text) == 0) {
        for (size_t k = decl_begin; k < j; ++k) {
          if (toks[k].kind != Token::kIdent ||
              kRawWidth.count(toks[k].text) == 0) {
            continue;
          }
          report(toks[k].line, "abi-raw-width",
                 "'" + toks[k].text + "' field in registered ABI struct '" +
                     name +
                     "' has platform-dependent width; persisted/wire "
                     "structs spell fixed-width types (int32_t, uint64_t, "
                     "...)");
        }
      }
      decl_begin = j + 1;
      function_like = false;
    }
  }
}

/// The epoch/snapshot discipline rule (scoped to paths containing src/,
/// like the concurrency pack — which includes the seeded fixtures under
/// tests/lint_fixtures/src/). common/epoch.h defines the vocabulary and is
/// exempt. EpochPtr members are reached through Acquire/Publish/epoch only,
/// and a snapshot handed out by Acquire is deep-immutable: mutating it in
/// place would change what concurrent readers of the same epoch observe.
template <typename ReportFn>
void LintEpochDiscipline(const std::string& path,
                         const std::vector<Token>& toks,
                         const ReportFn& report) {
  if (path.find("src/") == std::string::npos) return;
  if (path.find("common/epoch.h") != std::string::npos) return;

  // Declarations pass: identifiers declared with an EpochPtr<...> type.
  std::set<std::string> epoch_ptrs;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent || toks[i].text != "EpochPtr" ||
        toks[i + 1].text != "<") {
      continue;
    }
    const size_t close = MatchingClose(toks, i + 1);
    if (close >= toks.size()) continue;
    const size_t decl = DeclaredIdent(toks, close + 1);
    if (decl < toks.size()) epoch_ptrs.insert(toks[decl].text);
  }
  if (epoch_ptrs.empty()) return;

  static const std::set<std::string> kEpochApi = {"Acquire", "Publish",
                                                  "epoch"};
  // Snapshot identifiers assigned from Acquire(), each with the token index
  // where its enclosing block ends — the lexical lifetime of the taint.
  // Scoping matters: a same-named local built fresh in another function
  // (make_shared, filled in, then Published) is the sanctioned pattern.
  std::map<std::string, size_t> snapshots;

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != Token::kIdent) continue;

    if (epoch_ptrs.count(tok.text) > 0 && i + 2 < toks.size() &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        toks[i + 2].kind == Token::kIdent) {
      // --- non-API member access on the EpochPtr itself --------------------
      if (kEpochApi.count(toks[i + 2].text) == 0) {
        report(toks[i + 2].line, "epoch-nonapi-access",
               "'" + tok.text + "." + toks[i + 2].text +
                   "': an EpochPtr is reached through "
                   "Acquire()/Publish()/epoch() only; poking past the API "
                   "hands concurrent readers a half-built or mutable level "
                   "set");
        continue;
      }
      // --- taint: `name = <epoch_ptr>.Acquire(...)` ------------------------
      if (toks[i + 2].text == "Acquire" && i + 3 < toks.size() &&
          toks[i + 3].text == "(" && i >= 2 && toks[i - 1].text == "=" &&
          toks[i - 2].kind == Token::kIdent) {
        size_t end = toks.size();
        int depth = 0;
        for (size_t j = i; j < toks.size(); ++j) {
          if (toks[j].text == "{") ++depth;
          if (toks[j].text == "}" && --depth < 0) {
            end = j;
            break;
          }
        }
        snapshots[toks[i - 2].text] = end;
      }
      continue;
    }

    // --- mutation through an acquired snapshot -----------------------------
    const auto it = snapshots.find(tok.text);
    if (it == snapshots.end() || i >= it->second || !IsAccessRoot(toks, i)) {
      continue;
    }
    // Walk the access chain (`snap->levels.push_back`, `snap->count = ...`)
    // to its final member, then judge the operation applied to it.
    size_t j = i;
    std::string last;
    while (j + 2 < toks.size() &&
           (toks[j + 1].text == "." || toks[j + 1].text == "->") &&
           toks[j + 2].kind == Token::kIdent) {
      last = toks[j + 2].text;
      j += 2;
    }
    if (last.empty() || j + 1 >= toks.size()) continue;
    const bool mutating_call =
        IsMutatingMethod(last) && toks[j + 1].text == "(";
    const bool member_write =
        toks[j + 1].text == "=" &&
        (j + 2 >= toks.size() || toks[j + 2].text != "=");
    if (mutating_call || member_write) {
      report(toks[j].line, "epoch-nonapi-access",
             "snapshot '" + tok.text +
                 "' acquired from an EpochPtr is mutated here ('" + last +
                 "'); published snapshots are deep-immutable — build a new "
                 "one off to the side and Publish it");
    }
  }
}

}  // namespace

void Linter::Report(const std::string& path, int line, const std::string& rule,
                    std::string message, const std::string& source_line) {
  if (Suppressed(path, rule, source_line, /*inline_allowed=*/true)) return;
  findings_.push_back({path, line, rule, std::move(message)});
}

bool Linter::Suppressed(const std::string& path, const std::string& rule,
                        const std::string& source_line,
                        bool /*inline_allowed*/) const {
  for (const AllowEntry& entry : allowlist_) {
    if (entry.rule != rule && entry.rule != "*") continue;
    if (path.find(entry.path_substring) == std::string::npos) continue;
    if (!entry.line_substring.empty() &&
        source_line.find(entry.line_substring) == std::string::npos) {
      continue;
    }
    return true;
  }
  return false;
}

void Linter::LintSource(const std::string& path, const std::string& contents) {
  const Scan scan = Tokenize(contents);
  const bool is_header = EndsWith(path, ".h");
  const std::vector<Token>& toks = scan.tokens;

  auto line_text = [&scan](int line) -> std::string {
    if (line >= 1 && line <= static_cast<int>(scan.lines.size())) {
      return scan.lines[static_cast<size_t>(line - 1)];
    }
    return {};
  };
  auto inline_allowed = [&scan](int line, const std::string& rule) {
    for (int l : {line, line - 1}) {
      auto it = scan.allow.find(l);
      if (it == scan.allow.end()) continue;
      for (const std::string& r : it->second) {
        if (r == rule || r == "*") return true;
      }
    }
    return false;
  };
  auto report = [&](int line, const std::string& rule, std::string message) {
    if (inline_allowed(line, rule)) return;
    Report(path, line, rule, std::move(message), line_text(line));
  };

  // --- copyright -----------------------------------------------------------
  if (scan.lines.empty() || !StartsWith(scan.lines[0], "// Copyright")) {
    report(1, "copyright",
           "file must open with the '// Copyright' header line");
  }

  // --- include-guard -------------------------------------------------------
  if (is_header) {
    const std::string want = ExpectedGuard(path);
    std::string ifndef_name;
    std::string define_name;
    int guard_line = 1;
    // The first two directives must be the #ifndef/#define pair; anything
    // else (or #pragma once) is a violation.
    if (scan.preprocessor.size() >= 2) {
      std::istringstream first(scan.preprocessor[0].second);
      std::istringstream second(scan.preprocessor[1].second);
      std::string hash1;
      std::string hash2;
      first >> hash1 >> ifndef_name;
      second >> hash2 >> define_name;
      guard_line = scan.preprocessor[0].first;
      if (hash1 != "#ifndef") ifndef_name.clear();
      if (hash2 != "#define") define_name.clear();
    }
    if (ifndef_name != want || define_name != want) {
      report(guard_line, "include-guard",
             "header guard must be '" + want + "' (found '" +
                 (ifndef_name.empty() ? "<none>" : ifndef_name) + "')");
    }
  }

  // --- using-namespace -----------------------------------------------------
  if (is_header) {
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind == Token::kIdent && toks[i].text == "using" &&
          toks[i + 1].kind == Token::kIdent &&
          toks[i + 1].text == "namespace") {
        report(toks[i].line, "using-namespace",
               "'using namespace' in a header leaks into every includer");
      }
    }
  }

  // --- determinism-clock ---------------------------------------------------
  {
    const bool exempt = StartsWith(path, "src/obs/") ||
                        path == "src/common/timer.h" ||
                        StartsWith(path, "src/common/random.") ||
                        StartsWith(path, "tools/");
    if (!exempt) {
      static const std::set<std::string> kBannedAlways = {
          "steady_clock",     "system_clock", "high_resolution_clock",
          "gettimeofday",     "clock_gettime", "drand48",
          "random_device",    "srand",        "rand_r",
      };
      static const std::set<std::string> kBannedCalls = {"rand", "time",
                                                         "clock"};
      for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Token::kIdent) continue;
        const std::string& t = toks[i].text;
        bool banned = kBannedAlways.count(t) > 0;
        if (!banned && kBannedCalls.count(t) > 0 && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
          // `std::time(`/bare `time(` are the libc call; `x.time(`/`x->time(`
          // would be a member of some other type and is not ours to ban.
          const bool member_access =
              i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
          const bool std_qualified =
              i > 1 && toks[i - 1].text == "::" && toks[i - 2].text == "std";
          banned = !member_access || std_qualified;
        }
        if (banned) {
          report(toks[i].line, "determinism-clock",
                 "'" + t +
                     "' makes queries/builds irreproducible; time and "
                     "randomness belong to src/obs/, common/timer.h, "
                     "common/random.*");
        }
      }
    }
  }

  // --- hash-order ----------------------------------------------------------
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent || toks[i].text != "ForEach" ||
        toks[i + 1].text != "(") {
      continue;
    }
    const size_t close = MatchingClose(toks, i + 1);
    if (close >= toks.size()) continue;
    const bool accumulates =
        RangeContainsIdent(toks, i + 2, close, "push_back") ||
        RangeContainsIdent(toks, i + 2, close, "emplace_back");
    if (!accumulates) continue;
    // A sort of the accumulated vector must follow promptly (the canonical
    // "dump the table, then canonicalize" idiom); 60 tokens is roughly the
    // following two statements.
    const bool sorted_after =
        RangeContainsIdent(toks, close, close + 60, "sort") ||
        RangeContainsIdent(toks, close, close + 60, "Sort");
    if (!sorted_after) {
      report(toks[i].line, "hash-order",
             "ForEach over a hash table accumulates into a vector without a "
             "following sort; hash order is seeded per process");
    }
  }

  // --- v2 rule pack: concurrency + flat-slab escapes -----------------------
  LintConcurrencyAndFlat(path, toks, report);

  // --- v3 rule pack: ABI/format contracts ----------------------------------
  LintAbiContracts(path, toks, report);

  // --- epoch/snapshot discipline (batch-dynamic read path) -----------------
  LintEpochDiscipline(path, toks, report);

  // --- function-structure pass: archive-symmetry + ops-budget --------------
  // One walk detects function definitions. It records the owner of every
  // SaveFlat/LoadFlat definition; for every definition it scans range-for
  // loops over ObjectId and demands OpsBudget::Charge when the function
  // takes an OpsBudget*.
  std::map<std::string, int> flat_saves;  // Owner -> first definition line.
  std::map<std::string, int> flat_loads;

  // Class context: (name, token index of the opening brace's matching
  // close), innermost last.
  std::vector<std::pair<std::string, size_t>> class_stack;
  std::string pending_class;

  const bool budget_scope = path.find("core/") != std::string::npos ||
                            path.find("serve/") != std::string::npos;

  // Recursive lambda over token ranges; `has_budget` is inherited by loops
  // in nested lambdas (they run on the enclosing query path).
  auto scan_range = [&](auto&& self, size_t begin, size_t end,
                        bool has_budget) -> void {
    for (size_t i = begin; i < end; ++i) {
      const Token& tok = toks[i];
      // Track class context for member Save/Load attribution.
      // `enum class`, `template <class T>` and `<..., class U>` are not
      // class-scope introductions.
      if (tok.kind == Token::kIdent &&
          (tok.text == "class" || tok.text == "struct") &&
          (i == 0 || (toks[i - 1].text != "enum" && toks[i - 1].text != "<" &&
                      toks[i - 1].text != ",")) &&
          i + 1 < end && toks[i + 1].kind == Token::kIdent) {
        pending_class = toks[i + 1].text;
        continue;
      }
      if (tok.text == ";") {
        pending_class.clear();
        continue;
      }
      if (tok.text == "{") {
        if (!pending_class.empty()) {
          const size_t close = MatchingClose(toks, i);
          class_stack.emplace_back(pending_class, close);
          pending_class.clear();
        }
        continue;
      }
      while (!class_stack.empty() && i >= class_stack.back().second) {
        class_stack.pop_back();
      }

      // Range-for over ObjectId on a budgeted query path must Charge.
      if (tok.kind == Token::kIdent && tok.text == "for" && i + 1 < end &&
          toks[i + 1].text == "(") {
        const size_t parens_close = MatchingClose(toks, i + 1);
        if (parens_close >= end) continue;
        bool range_for = false;
        int depth = 0;
        for (size_t j = i + 2; j < parens_close; ++j) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
          if (depth == 0 && toks[j].text == ":") {
            range_for = true;
            break;
          }
        }
        const bool over_objects =
            range_for && RangeContainsIdent(toks, i + 2, parens_close,
                                            "ObjectId");
        if (over_objects && has_budget && budget_scope &&
            parens_close + 1 < end && toks[parens_close + 1].text == "{") {
          const size_t body_close = MatchingClose(toks, parens_close + 1);
          if (!RangeContainsIdent(toks, parens_close + 1, body_close,
                                  "Charge")) {
            report(tok.line, "ops-budget",
                   "candidate-enumeration loop on a budgeted query path "
                   "does not call OpsBudget::Charge (footnote 4 manual "
                   "termination)");
          }
          // The loop body is still scanned below for nested functions.
        }
        continue;
      }

      // Function definition: ident '(' params ')' [const|noexcept|requires]
      // '{'. Control-flow keywords and macro-looking all-caps names are not
      // functions.
      if (tok.kind != Token::kIdent || i + 1 >= end ||
          toks[i + 1].text != "(") {
        continue;
      }
      static const std::set<std::string> kNotFunctions = {
          "if",     "for",    "while",   "switch", "return",
          "sizeof", "static_assert",     "decltype", "alignof",
          "catch",  "requires"};
      if (kNotFunctions.count(tok.text) > 0) continue;
      const size_t params_close = MatchingClose(toks, i + 1);
      if (params_close >= end) continue;
      size_t j = params_close + 1;
      bool is_definition = false;
      while (j < end) {
        const std::string& t = toks[j].text;
        if (t == "const" || t == "noexcept" || t == "override" ||
            t == "final" || t == "mutable") {
          ++j;
          continue;
        }
        if (t == "requires") {
          // Skip the trailing requires-clause: `requires ( ... )` or a bare
          // concept expression up to the '{'.
          ++j;
          if (j < end && toks[j].text == "(") j = MatchingClose(toks, j) + 1;
          continue;
        }
        is_definition = t == "{";
        break;
      }
      if (!is_definition || j >= end) continue;
      const size_t body_open = j;
      const size_t body_close = MatchingClose(toks, body_open);
      if (body_close > end) continue;

      const bool fn_has_budget =
          RangeContainsIdent(toks, i + 2, params_close, "OpsBudget");

      // Flat pair members, by owner: Class::SaveFlat out of line, or a
      // SaveFlat defined inside the class body.
      if (tok.text == "SaveFlat" || tok.text == "LoadFlat") {
        std::string owner;
        if (i >= 2 && toks[i - 1].text == "::" &&
            toks[i - 2].kind == Token::kIdent) {
          owner = toks[i - 2].text;
        } else if (!class_stack.empty()) {
          owner = class_stack.back().first;
        }
        if (!owner.empty()) {
          (tok.text == "SaveFlat" ? flat_saves : flat_loads)
              .emplace(owner, tok.line);
        }
      }

      self(self, body_open + 1, body_close, fn_has_budget);
      i = body_close;
    }
  };
  scan_range(scan_range, 0, toks.size(), /*has_budget=*/false);

  // --- archive-symmetry: a mapped-format writer ships with its reader in
  // the same file, and the other way round. ---------------------------------
  for (const auto& [owner, line] : flat_saves) {
    if (flat_loads.count(owner) == 0) {
      report(line, "archive-symmetry",
             owner +
                 ": SaveFlat has no LoadFlat counterpart in this file; a "
                 "v2 flat container nobody can map back is write-only data");
    }
  }
  for (const auto& [owner, line] : flat_loads) {
    if (flat_saves.count(owner) == 0) {
      report(line, "archive-symmetry",
             owner +
                 ": LoadFlat has no SaveFlat counterpart in this file; a "
                 "mapped-format reader with no writer cannot be kept in "
                 "sync with the layout it parses");
    }
  }
}

bool Linter::LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream contents;
  contents << in.rdbuf();
  std::string rule_path = path;
  if (!root_.empty() && StartsWith(rule_path, root_)) {
    rule_path = rule_path.substr(root_.size());
    while (!rule_path.empty() && rule_path.front() == '/') {
      rule_path = rule_path.substr(1);
    }
  }
  while (StartsWith(rule_path, "./")) rule_path = rule_path.substr(2);
  LintSource(rule_path, contents.str());
  return true;
}

bool Linter::LintTree(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> files;
  fs::recursive_directory_iterator it(dir, ec);
  if (ec) return false;
  for (auto end = fs::recursive_directory_iterator(); it != end;
       it.increment(ec)) {
    if (ec) return false;
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    if (it->is_directory()) {
      // Seeded-violation corpora and build trees are not the real tree.
      if (name == "lint_fixtures" || name == "negative_compile" ||
          StartsWith(name, "build") || StartsWith(name, ".")) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (EndsWith(name, ".h") || EndsWith(name, ".cc") ||
        EndsWith(name, ".cpp")) {
      files.push_back(p.generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  bool ok = true;
  for (const std::string& file : files) ok = LintFile(file) && ok;
  return ok;
}

std::vector<Finding> Linter::TakeFindings() {
  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return std::move(findings_);
}

}  // namespace lint
}  // namespace kwsc
