// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "scanner.h"

#include <cctype>
#include <sstream>

namespace kwsc {
namespace lint {

namespace {

void RecordAllowComment(Scan* scan, int line, std::string_view comment) {
  static constexpr std::string_view kTag = "kwsc-lint: allow(";
  size_t pos = comment.find(kTag);
  while (pos != std::string_view::npos) {
    const size_t open = pos + kTag.size();
    const size_t close = comment.find(')', open);
    if (close == std::string_view::npos) break;
    scan->allow[line].emplace_back(comment.substr(open, close - open));
    pos = comment.find(kTag, close);
  }
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

Scan Tokenize(const std::string& contents) {
  Scan scan;
  {
    std::istringstream stream(contents);
    std::string line;
    while (std::getline(stream, line)) scan.lines.push_back(line);
  }

  const size_t n = contents.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // Only whitespace seen since the last newline.
  auto advance = [&](size_t count) {
    for (size_t j = 0; j < count && i < n; ++j, ++i) {
      if (contents[i] == '\n') {
        ++line;
        at_line_start = true;
      }
    }
  };

  while (i < n) {
    const char c = contents[i];
    if (c == '\n') {
      advance(1);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && contents[i + 1] == '/') {
      const size_t end = contents.find('\n', i);
      const size_t stop = end == std::string::npos ? n : end;
      RecordAllowComment(&scan, line,
                         std::string_view(contents).substr(i, stop - i));
      advance(stop - i);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && contents[i + 1] == '*') {
      const size_t end = contents.find("*/", i + 2);
      const size_t stop = end == std::string::npos ? n : end + 2;
      RecordAllowComment(&scan, line,
                         std::string_view(contents).substr(i, stop - i));
      advance(stop - i);
      continue;
    }
    // Preprocessor directive (with backslash continuations), only when '#'
    // is the first non-whitespace character on the line.
    if (c == '#' && at_line_start) {
      const int directive_line = line;
      size_t end = i;
      while (end < n) {
        const size_t newline = contents.find('\n', end);
        const size_t stop = newline == std::string::npos ? n : newline;
        // A trailing backslash continues the directive onto the next line.
        size_t last = stop;
        while (last > end &&
               std::isspace(static_cast<unsigned char>(contents[last - 1])) !=
                   0 &&
               contents[last - 1] != '\n') {
          --last;
        }
        if (last > end && contents[last - 1] == '\\' &&
            newline != std::string::npos) {
          end = newline + 1;
          continue;
        }
        end = stop;
        break;
      }
      scan.preprocessor.emplace_back(directive_line,
                                     contents.substr(i, end - i));
      advance(end - i);
      continue;
    }
    at_line_start = false;
    // String literal.
    if (c == '"') {
      size_t j = i + 1;
      while (j < n && contents[j] != '"') {
        if (contents[j] == '\\') ++j;
        ++j;
      }
      const size_t stop = j < n ? j + 1 : n;
      scan.tokens.push_back(
          {Token::kString, contents.substr(i, stop - i), line});
      advance(stop - i);
      continue;
    }
    // Character literal (the lexer does not need digraph/UDL fidelity).
    if (c == '\'') {
      size_t j = i + 1;
      while (j < n && contents[j] != '\'') {
        if (contents[j] == '\\') ++j;
        ++j;
      }
      const size_t stop = j < n ? j + 1 : n;
      scan.tokens.push_back({Token::kChar, contents.substr(i, stop - i), line});
      advance(stop - i);
      continue;
    }
    // Identifier / keyword.
    if (IsIdentChar(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
      size_t j = i;
      while (j < n && IsIdentChar(contents[j])) ++j;
      scan.tokens.push_back({Token::kIdent, contents.substr(i, j - i), line});
      advance(j - i);
      continue;
    }
    // Number (good enough: digits plus identifier-ish suffixes and dots).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      size_t j = i;
      while (j < n && (IsIdentChar(contents[j]) || contents[j] == '.' ||
                       ((contents[j] == '+' || contents[j] == '-') && j > i &&
                        (contents[j - 1] == 'e' || contents[j - 1] == 'E')))) {
        ++j;
      }
      scan.tokens.push_back({Token::kNumber, contents.substr(i, j - i), line});
      advance(j - i);
      continue;
    }
    // Punctuation; '::' and '->' matter to the rules, so keep them fused.
    if (c == ':' && i + 1 < n && contents[i + 1] == ':') {
      scan.tokens.push_back({Token::kPunct, "::", line});
      advance(2);
      continue;
    }
    if (c == '-' && i + 1 < n && contents[i + 1] == '>') {
      scan.tokens.push_back({Token::kPunct, "->", line});
      advance(2);
      continue;
    }
    scan.tokens.push_back({Token::kPunct, std::string(1, c), line});
    advance(1);
  }
  return scan;
}

size_t MatchingClose(const std::vector<Token>& tokens, size_t open) {
  const std::string& open_text = tokens[open].text;
  const std::string close_text = open_text == "("   ? ")"
                                 : open_text == "{" ? "}"
                                 : open_text == "[" ? "]"
                                                    : ">";
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].text == open_text) {
      ++depth;
    } else if (tokens[i].text == close_text) {
      if (--depth == 0) return i;
    }
  }
  return tokens.size();
}

bool RangeContainsIdent(const std::vector<Token>& tokens, size_t begin,
                        size_t end, std::string_view ident) {
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    if (tokens[i].kind == Token::kIdent && tokens[i].text == ident) {
      return true;
    }
  }
  return false;
}

const std::set<std::string>& ThreadAnnotationMacros() {
  static const std::set<std::string> kMacros = {
      "KWSC_GUARDED_BY",       "KWSC_PT_GUARDED_BY",
      "KWSC_REQUIRES",         "KWSC_REQUIRES_SHARED",
      "KWSC_ACQUIRE",          "KWSC_ACQUIRE_SHARED",
      "KWSC_RELEASE",          "KWSC_RELEASE_SHARED",
      "KWSC_TRY_ACQUIRE",      "KWSC_EXCLUDES",
      "KWSC_ASSERT_CAPABILITY", "KWSC_RETURN_CAPABILITY",
      "KWSC_ACQUIRED_BEFORE",  "KWSC_ACQUIRED_AFTER"};
  return kMacros;
}

size_t DeclaredIdent(const std::vector<Token>& toks, size_t after_type) {
  size_t j = after_type;
  while (j < toks.size() &&
         (toks[j].text == "*" || toks[j].text == "&" ||
          toks[j].text == "const")) {
    ++j;
  }
  if (j < toks.size() && toks[j].kind == Token::kIdent) return j;
  return toks.size();
}

DeclIndex BuildDeclIndex(const std::vector<Token>& toks) {
  DeclIndex index;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != Token::kIdent) continue;

    // Mutex members: `Mutex name_;` (locals without the member underscore
    // are scoped by construction and carry their discipline in the code
    // around them).
    if (tok.text == "Mutex" && i + 2 < toks.size() &&
        toks[i + 1].kind == Token::kIdent && toks[i + 2].text == ";" &&
        EndsWith(toks[i + 1].text, "_")) {
      index.mutex_members.emplace(toks[i + 1].text, toks[i + 1].line);
    }

    // Annotation arguments.
    if (ThreadAnnotationMacros().count(tok.text) > 0 && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      const size_t close = MatchingClose(toks, i + 1);
      for (size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (toks[j].kind == Token::kIdent) index.annotated.insert(toks[j].text);
      }
    }

    // Mapped-memory declarations: `MmapFile f`, `const SlabRef& r`,
    // `FlatArenaReader reader`. The declared name inherits the taint.
    if (tok.text == "MmapFile" || tok.text == "SlabRef" ||
        tok.text == "FlatArenaReader") {
      const size_t decl = DeclaredIdent(toks, i + 1);
      if (decl < toks.size()) {
        index.mapped.insert(toks[decl].text);
        if (tok.text == "FlatArenaReader" &&
            EndsWith(toks[decl].text, "_") && decl + 1 < toks.size() &&
            (toks[decl + 1].text == ";" || toks[decl + 1].text == "=" ||
             toks[decl + 1].text == "{")) {
          index.retained_members.emplace(toks[decl].text, toks[decl].line);
        }
      }
    }

    // `std::byte* p` declarations (the '*' is what makes it a raw view; a
    // by-value std::byte is inert).
    if (tok.text == "std" && i + 2 < toks.size() &&
        toks[i + 1].text == "::" && toks[i + 2].text == "byte") {
      size_t j = i + 3;
      bool pointer = false;
      while (j < toks.size() &&
             (toks[j].text == "*" || toks[j].text == "&" ||
              toks[j].text == "const")) {
        pointer = pointer || toks[j].text == "*";
        ++j;
      }
      if (pointer && j < toks.size() && toks[j].kind == Token::kIdent) {
        index.byte_ptrs.insert(toks[j].text);
        if (EndsWith(toks[j].text, "_") && j + 1 < toks.size() &&
            (toks[j + 1].text == ";" || toks[j + 1].text == "=" ||
             toks[j + 1].text == "{")) {
          index.retained_members.emplace(toks[j].text, toks[j].line);
        }
      }
    }
  }
  return index;
}

}  // namespace lint
}  // namespace kwsc
