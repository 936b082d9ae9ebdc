// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// The shared lexical scanner behind kwsc's static analyzers.
//
// kwsc-lint (rule judging) and kwsc-abi (format-manifest extraction) read
// the same codebase with the same deliberately-lexical model: a token
// stream with comments stripped and preprocessor lines collected on the
// side, plus a per-file declarations pass (DeclIndex) that records what
// names *mean* — which members are Mutexes, which identifiers hold mapped
// memory — so the passes above can judge uses instead of single tokens.
// Keeping one scanner keeps the two tools' view of the sources identical:
// a construct kwsc-abi can extract is a construct kwsc-lint can check.

#ifndef KWSC_TOOLS_KWSC_LINT_SCANNER_H_
#define KWSC_TOOLS_KWSC_LINT_SCANNER_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kwsc {
namespace lint {

// ---------------------------------------------------------------------------
// Lexer: comments and preprocessor lines stripped from the token stream
// (preprocessor directives and allow-comments are collected on the side).
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct Scan {
  std::vector<std::string> lines;  // 0-based; lines[i] is source line i+1.
  std::vector<Token> tokens;
  std::vector<std::pair<int, std::string>> preprocessor;  // (line, directive)
  std::map<int, std::vector<std::string>> allow;  // line -> allowed rule ids
};

Scan Tokenize(const std::string& contents);

/// Index of the token matching the opener at `open` ('(', '{', '[' or '<'),
/// or tokens.size() if unbalanced.
size_t MatchingClose(const std::vector<Token>& tokens, size_t open);

bool RangeContainsIdent(const std::vector<Token>& tokens, size_t begin,
                        size_t end, std::string_view ident);

bool EndsWith(std::string_view text, std::string_view suffix);
bool StartsWith(std::string_view text, std::string_view prefix);

// ---------------------------------------------------------------------------
// Declarations pass: a lightweight per-file semantic model. Still lexical —
// "declaration" is a token-shape heuristic, not a parse — but the two-pass
// split (collect what names mean, then judge how they are used) is what lets
// the rules reason about captures, guards, and mapped memory.
// ---------------------------------------------------------------------------

/// What the declarations pass learned about one file.
struct DeclIndex {
  /// Mutex members (`Mutex name_;`, optionally `mutable`): name -> line.
  std::map<std::string, int> mutex_members;
  /// Every identifier appearing inside a KWSC_* thread-safety annotation's
  /// argument list. Deliberately coarse: naming a mutex anywhere in the
  /// contract vocabulary counts as giving it a discipline.
  std::set<std::string> annotated;
  /// Identifiers declared with a mapped-memory type (MmapFile, SlabRef,
  /// FlatArenaReader) — the taint set for flat-escape.
  std::set<std::string> mapped;
  /// Identifiers declared `std::byte*` / `const std::byte*`: raw pointers
  /// into (potentially) mapped regions, subject to the arithmetic ban.
  std::set<std::string> byte_ptrs;
  /// Member-shaped (trailing '_') declarations that retain a view into a
  /// mapped region past the deriving scope: name -> line, for flat-retain.
  std::map<std::string, int> retained_members;
};

const std::set<std::string>& ThreadAnnotationMacros();

/// From the token after a type name, skips declarator decoration and returns
/// the declared identifier's index, or tokens.size() when the type name is
/// not introducing a declaration here (a cast, a template argument, ...).
size_t DeclaredIdent(const std::vector<Token>& toks, size_t after_type);

DeclIndex BuildDeclIndex(const std::vector<Token>& toks);

}  // namespace lint
}  // namespace kwsc

#endif  // KWSC_TOOLS_KWSC_LINT_SCANNER_H_
