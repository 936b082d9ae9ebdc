// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.

#include "abi.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace kwsc {
namespace abi {

using lint::MatchingClose;
using lint::Scan;
using lint::StartsWith;
using lint::Token;
using lint::Tokenize;

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Joins tokens into a compact canonical spelling: a space only where two
/// identifier-ish tokens would otherwise fuse ("unsigned int" stays two
/// words, "std::array<Scalar, D>" collapses to "std::array<Scalar,D>").
std::string CompactSpelling(const std::vector<Token>& toks, size_t begin,
                            size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t.empty()) continue;
    if (!out.empty() && IsIdentChar(out.back()) && IsIdentChar(t.front())) {
      out += ' ';
    }
    out += t;
  }
  return out;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

/// Parses the `kwsc-abi: format` annotations and their version constants
/// from core/format_versions.h's raw lines (the annotations live in
/// comments, which the tokenizer strips).
void ParseFormats(const SourceFile& file, const std::vector<std::string>& lines,
                  Model* model) {
  static constexpr std::string_view kTag = "kwsc-abi: format ";
  for (size_t i = 0; i < lines.size(); ++i) {
    const size_t pos = lines[i].find(kTag);
    if (pos == std::string::npos) continue;
    // The doc block spells the grammar with <...> placeholders; only real
    // annotations (no angle brackets) declare formats.
    if (lines[i].find('<') != std::string::npos) continue;
    FormatSpec spec;
    spec.line = static_cast<int>(i + 1);
    std::istringstream fields(lines[i].substr(pos + kTag.size()));
    std::string word;
    fields >> spec.key;
    while (fields >> word) {
      if (StartsWith(word, "tags=")) {
        spec.tags = SplitCommas(word.substr(5));
      } else if (StartsWith(word, "files=")) {
        spec.files = SplitCommas(word.substr(6));
      } else {
        model->errors.push_back(file.path + ":" + std::to_string(i + 1) +
                                ": unknown format annotation field '" + word +
                                "'");
      }
    }
    // The annotated constant follows on the next non-comment line:
    // `inline constexpr uint32_t kXFormatVersion = N;`.
    bool found = false;
    for (size_t j = i + 1; j < lines.size() && j <= i + 3; ++j) {
      const std::string& decl = lines[j];
      const size_t kpos = decl.find("constexpr uint32_t ");
      if (kpos == std::string::npos) continue;
      const size_t name_begin = kpos + 19;
      size_t name_end = name_begin;
      while (name_end < decl.size() && IsIdentChar(decl[name_end])) ++name_end;
      const size_t eq = decl.find('=', name_end);
      if (eq == std::string::npos) break;
      spec.constant = decl.substr(name_begin, name_end - name_begin);
      spec.version =
          static_cast<uint32_t>(std::strtoul(decl.c_str() + eq + 1, nullptr, 10));
      found = true;
      break;
    }
    if (!found || spec.key.empty() || spec.files.empty()) {
      model->errors.push_back(
          file.path + ":" + std::to_string(spec.line) +
          ": malformed format annotation (need key, files=, and a "
          "constexpr uint32_t constant on the following line)");
      continue;
    }
    model->formats.push_back(std::move(spec));
  }
}

/// A struct definition found in some file, with its extracted field list.
struct DefSite {
  std::string file;
  int line = 0;
  std::vector<Field> fields;
};

/// Extracts the field declarations of a struct body [body_open+1,
/// body_close). Field-declaration granular: member functions (any decl with
/// a top-level '('; bodies skipped whole), static members, aliases, nested
/// types, and access labels are not layout.
std::vector<Field> ExtractFields(const std::vector<Token>& toks,
                                 size_t body_open, size_t body_close) {
  static const std::set<std::string> kNotFields = {
      "static", "using",  "friend", "template", "typedef",
      "struct", "class",  "enum",   "public",   "private",
      "protected"};
  std::vector<Field> fields;
  size_t decl_begin = body_open + 1;
  bool function_like = false;
  int depth = 0;
  for (size_t j = body_open + 1; j < body_close && j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    // Access labels end with ':' not ';' — restart the decl after them.
    if (j == decl_begin && kNotFields.count(t) > 0 && j + 1 < body_close &&
        toks[j + 1].text == ":") {
      decl_begin = j + 2;
      ++j;
      continue;
    }
    if (t == "(" || t == "[") ++depth;
    if (t == ")" || t == "]") --depth;
    if (t == "(") function_like = true;
    if (t == "{" && depth == 0) {
      if (function_like) {
        j = MatchingClose(toks, j);
        decl_begin = j + 1;
        function_like = false;
        continue;
      }
      ++depth;  // Brace initializer or nested definition: part of the decl.
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
      // Strip a trailing initializer: the first top-level '=' or '{'.
      size_t cut = j;
      int d2 = 0;
      for (size_t k = decl_begin; k < j; ++k) {
        const std::string& u = toks[k].text;
        if (u == "(" || u == "[" || u == "<") ++d2;
        if (u == ")" || u == "]" || u == ">") --d2;
        if (d2 == 0 && (u == "=" || u == "{")) {
          cut = k;
          break;
        }
      }
      // Peel array suffixes: declarator is `name [a] [b] ...`.
      size_t name_end = cut;
      while (name_end > decl_begin && toks[name_end - 1].text == "]") {
        int brackets = 0;
        size_t k = name_end;
        while (k > decl_begin) {
          --k;
          if (toks[k].text == "]") ++brackets;
          if (toks[k].text == "[" && --brackets == 0) break;
        }
        name_end = k;
      }
      if (name_end > decl_begin + 1 &&
          toks[name_end - 1].kind == Token::kIdent) {
        Field field;
        field.name = toks[name_end - 1].text;
        field.type = CompactSpelling(toks, decl_begin, name_end - 1);
        field.array = CompactSpelling(toks, name_end, cut);
        field.line = toks[name_end - 1].line;
        fields.push_back(std::move(field));
      }
    }
    decl_begin = j + 1;
    function_like = false;
  }
  return fields;
}

/// The struct a registered type resolves to: the last identifier at angle
/// depth 0 of its spelling ("OrpKwIndex<2>::FlatRoot" -> "FlatRoot",
/// "FlatNodeRec<Box<2, int64_t>>" -> "FlatNodeRec").
std::string BaseName(const std::vector<Token>& toks, size_t begin,
                     size_t end) {
  std::string base;
  int depth = 0;
  for (size_t i = begin; i < end && i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    if (t == ">") --depth;
    if (depth == 0 && toks[i].kind == Token::kIdent) base = t;
  }
  return base;
}

/// Statement bounds around token `at`: (first token after the previous
/// ';'/'{'/'}', the next ';' at or after `at`).
std::pair<size_t, size_t> StatementBounds(const std::vector<Token>& toks,
                                          size_t at, size_t lo, size_t hi) {
  size_t begin = lo;
  for (size_t k = at; k > lo; --k) {
    const std::string& t = toks[k - 1].text;
    if (t == ";" || t == "{" || t == "}") {
      begin = k;
      break;
    }
  }
  size_t end = hi;
  for (size_t k = at; k < hi; ++k) {
    if (toks[k].text == ";") {
      end = k;
      break;
    }
  }
  return {begin, end};
}

/// Ordered format ops of a function body: slab ops (Slab/Root — the Ok
/// validation variants read the same layouts and are deliberately not part
/// of the locked sequence) and nested Save*/Load* calls.
std::vector<FormatOp> ExtractFormatOps(const std::vector<Token>& toks,
                                       size_t begin, size_t end) {
  std::vector<FormatOp> ops;
  for (size_t j = begin; j < end; ++j) {
    if (toks[j].kind != Token::kIdent || j + 1 >= end) continue;
    const std::string& name = toks[j].text;
    if (name == "Slab" || name == "Root") {
      // Only member-access spellings (writer.Slab, reader->Slab,
      // reader.template Root<...>) are arena ops; a qualified Root(...)
      // elsewhere is just a name collision.
      const bool member_access =
          j > 0 && (toks[j - 1].text == "." || toks[j - 1].text == "->" ||
                    toks[j - 1].text == "template");
      const bool call = toks[j + 1].text == "(" ||
                        (toks[j + 1].text == "<" &&
                         MatchingClose(toks, j + 1) + 1 < toks.size() &&
                         toks[MatchingClose(toks, j + 1) + 1].text == "(");
      if (member_access && call) {
        // The whole statement is the locked spelling: it captures the
        // element type, the source expression, and the root/ref field the
        // slab lands in.
        const auto [s, e] = StatementBounds(toks, j, begin, end);
        ops.push_back({name, CompactSpelling(toks, s, e), toks[j].line});
      }
    } else if ((StartsWith(name, "Save") || StartsWith(name, "Load")) &&
               toks[j + 1].text == "(") {
      ops.push_back({"Sub", name, toks[j].line});
    }
  }
  return ops;
}

}  // namespace

const FormatSpec* FormatForPath(const Model& model, const std::string& path,
                                std::vector<std::string>* errors) {
  const FormatSpec* match = nullptr;
  for (const FormatSpec& spec : model.formats) {
    for (const std::string& substr : spec.files) {
      if (path.find(substr) == std::string::npos) continue;
      if (match != nullptr && match != &spec) {
        errors->push_back(path + ": covered by two formats ('" + match->key +
                          "' and '" + spec.key +
                          "'); file substrings in core/format_versions.h "
                          "must partition the tree");
        return nullptr;
      }
      match = &spec;
    }
  }
  if (match == nullptr) {
    errors->push_back(
        path +
        ": contributes format-manifest content but no `kwsc-abi: format` "
        "annotation in core/format_versions.h covers it; add the file to a "
        "format's files= list (or create a format for it)");
  }
  return match;
}

Model BuildModel(const std::vector<SourceFile>& sources) {
  Model model;
  std::map<std::string, std::vector<DefSite>> defs;  // struct name -> sites

  for (const SourceFile& file : sources) {
    const bool is_versions_header =
        file.path.find("core/format_versions.h") != std::string::npos;
    const bool is_abi_header =
        file.path.find("common/abi.h") != std::string::npos;
    const Scan scan = Tokenize(file.contents);
    const std::vector<Token>& toks = scan.tokens;
    if (is_versions_header) {
      ParseFormats(file, scan.lines, &model);
      continue;  // The table declares formats; it contributes no content.
    }

    // --- registrations + struct definitions + tag uses ---------------------
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      if (tok.kind != Token::kIdent) continue;

      if (!is_abi_header && StartsWith(tok.text, "KWSC_ABI_STRUCT") &&
          i + 1 < toks.size() && toks[i + 1].text == "(") {
        const size_t close = MatchingClose(toks, i + 1);
        StructInfo info;
        info.file = file.path;
        info.line = tok.line;
        info.padded = tok.text == "KWSC_ABI_STRUCT_PADDED_AS";
        const bool has_alias = tok.text != "KWSC_ABI_STRUCT";
        if (has_alias) {
          // KWSC_ABI_STRUCT_AS(alias, Type...): alias is the single token
          // before the first depth-0 comma.
          size_t comma = close;
          int depth = 0;
          for (size_t j = i + 2; j < close; ++j) {
            const std::string& t = toks[j].text;
            if (t == "(" || t == "<" || t == "[" || t == "{") ++depth;
            if (t == ")" || t == ">" || t == "]" || t == "}") --depth;
            if (depth == 0 && t == ",") {
              comma = j;
              break;
            }
          }
          if (comma == close || comma != i + 3 ||
              toks[i + 2].kind != Token::kIdent) {
            model.errors.push_back(file.path + ":" + std::to_string(tok.line) +
                                   ": malformed " + tok.text +
                                   " (want (alias, type))");
            i = close;
            continue;
          }
          info.alias = toks[i + 2].text;
          info.type = CompactSpelling(toks, comma + 1, close);
          info.def_file = BaseName(toks, comma + 1, close);  // temp: base name
        } else {
          if (close != i + 3 || toks[i + 2].kind != Token::kIdent) {
            model.errors.push_back(file.path + ":" + std::to_string(tok.line) +
                                   ": malformed KWSC_ABI_STRUCT (want a "
                                   "single type name)");
            i = close;
            continue;
          }
          info.alias = toks[i + 2].text;
          info.type = toks[i + 2].text;
          info.def_file = info.type;  // temp: base name
        }
        model.structs.push_back(std::move(info));
        i = close;
        continue;
      }

      if (tok.text == "struct" && i + 2 < toks.size() &&
          (i == 0 || (toks[i - 1].text != "enum" && toks[i - 1].text != "<" &&
                      toks[i - 1].text != ",")) &&
          toks[i + 1].kind == Token::kIdent && toks[i + 2].text == "{") {
        const size_t close = MatchingClose(toks, i + 2);
        defs[toks[i + 1].text].push_back(
            {file.path, toks[i + 1].line, ExtractFields(toks, i + 2, close)});
        continue;
      }

      if (tok.text == "FlatFamilyTag" && i + 8 < toks.size() &&
          toks[i + 1].text == "(" && toks[i + 2].kind == Token::kChar) {
        // FlatFamilyTag('K', 'W', 'O', '2') — the four char literals.
        std::string tag;
        for (size_t j = i + 2; j < toks.size() && tag.size() < 4; ++j) {
          if (toks[j].kind == Token::kChar && toks[j].text.size() == 3) {
            tag += toks[j].text[1];
          } else if (toks[j].text != ",") {
            break;
          }
        }
        if (tag.size() == 4) {
          model.tags.push_back({tag, file.path, tok.line});
        }
        continue;
      }
    }

    // --- Save/Load op-sequence sections ------------------------------------
    // The same function-definition walk kwsc-lint's function-structure pass
    // uses: class-context stack, keyword screen, body detection.
    std::vector<std::pair<std::string, size_t>> class_stack;
    std::string pending_class;
    static const std::set<std::string> kNotFunctions = {
        "if",     "for",           "while",    "switch",  "return",
        "sizeof", "static_assert", "decltype", "alignof", "catch",
        "requires"};
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      if (tok.kind == Token::kIdent &&
          (tok.text == "class" || tok.text == "struct") &&
          (i == 0 || (toks[i - 1].text != "enum" && toks[i - 1].text != "<" &&
                      toks[i - 1].text != ",")) &&
          i + 1 < toks.size() && toks[i + 1].kind == Token::kIdent) {
        pending_class = toks[i + 1].text;
        continue;
      }
      if (tok.text == ";") {
        pending_class.clear();
        continue;
      }
      if (tok.text == "{") {
        if (!pending_class.empty()) {
          class_stack.emplace_back(pending_class, MatchingClose(toks, i));
          pending_class.clear();
        }
        continue;
      }
      while (!class_stack.empty() && i >= class_stack.back().second) {
        class_stack.pop_back();
      }
      if (tok.kind != Token::kIdent || i + 1 >= toks.size() ||
          toks[i + 1].text != "(" || kNotFunctions.count(tok.text) > 0) {
        continue;
      }
      const size_t params_close = MatchingClose(toks, i + 1);
      if (params_close >= toks.size()) continue;
      size_t j = params_close + 1;
      bool is_definition = false;
      while (j < toks.size()) {
        const std::string& t = toks[j].text;
        if (t == "const" || t == "noexcept" || t == "override" ||
            t == "final" || t == "mutable") {
          ++j;
          continue;
        }
        if (t == "requires") {
          ++j;
          if (j < toks.size() && toks[j].text == "(") {
            j = MatchingClose(toks, j) + 1;
          }
          continue;
        }
        is_definition = t == "{";
        break;
      }
      if (!is_definition) continue;
      const size_t body_open = j;
      const size_t body_close = MatchingClose(toks, body_open);

      std::vector<FormatOp> ops =
          ExtractFormatOps(toks, body_open + 1, body_close);
      // Keep the section when the body issues a direct layout op, or when a
      // Save*/Load* function delegates to nested serializers (its call
      // order is the format).
      const bool save_load_named =
          StartsWith(tok.text, "Save") || StartsWith(tok.text, "Load");
      const bool direct = std::any_of(
          ops.begin(), ops.end(),
          [](const FormatOp& op) { return op.kind != "Sub"; });
      if (!ops.empty() && (direct || save_load_named)) {
        std::string owner;
        if (i >= 2 && toks[i - 1].text == "::" &&
            toks[i - 2].kind == Token::kIdent) {
          owner = toks[i - 2].text;
        } else if (!class_stack.empty()) {
          owner = class_stack.back().first;
        }
        OpSection section;
        section.file = file.path;
        section.function =
            owner.empty() ? tok.text : owner + "::" + tok.text;
        section.line = tok.line;
        section.ops = std::move(ops);
        model.sections.push_back(std::move(section));
      }
      i = body_close;
    }
  }

  // --- resolve registrations against struct definitions --------------------
  std::set<std::string> aliases;
  for (StructInfo& info : model.structs) {
    if (!aliases.insert(info.alias).second) {
      model.errors.push_back(info.file + ":" + std::to_string(info.line) +
                             ": duplicate ABI registration alias '" +
                             info.alias + "'");
    }
    const std::string base = info.def_file;  // stashed base name
    info.def_file.clear();
    auto it = defs.find(base);
    if (it == defs.end() || it->second.empty()) {
      model.errors.push_back(info.file + ":" + std::to_string(info.line) +
                             ": registered type '" + info.type +
                             "' has no struct definition named '" + base +
                             "' anywhere under src/");
      continue;
    }
    // Prefer a definition in the registering file; otherwise the name must
    // be globally unique.
    std::vector<const DefSite*> candidates;
    for (const DefSite& site : it->second) {
      if (site.file == info.file) candidates.push_back(&site);
    }
    if (candidates.empty()) {
      for (const DefSite& site : it->second) candidates.push_back(&site);
    }
    if (candidates.size() != 1) {
      model.errors.push_back(
          info.file + ":" + std::to_string(info.line) + ": struct name '" +
          base + "' for registration '" + info.alias + "' is ambiguous (" +
          std::to_string(candidates.size()) +
          " definitions, none in the registering file)");
      continue;
    }
    info.def_file = candidates[0]->file;
    info.def_line = candidates[0]->line;
    info.fields = candidates[0]->fields;
    if (info.fields.empty()) {
      model.errors.push_back(info.file + ":" + std::to_string(info.line) +
                             ": registered struct '" + info.alias +
                             "' has no extractable fields");
    }
  }

  // --- coverage + tag cross-checks ------------------------------------------
  std::set<std::string> contributing;
  for (const StructInfo& s : model.structs) contributing.insert(s.file);
  for (const OpSection& s : model.sections) contributing.insert(s.file);
  for (const TagUse& t : model.tags) contributing.insert(t.file);
  std::map<std::string, const FormatSpec*> file_format;
  for (const std::string& path : contributing) {
    file_format[path] = FormatForPath(model, path, &model.errors);
  }
  std::map<std::string, std::set<std::string>> tags_seen;  // format -> tags
  for (const TagUse& use : model.tags) {
    const FormatSpec* spec = file_format[use.file];
    if (spec == nullptr) continue;
    tags_seen[spec->key].insert(use.tag);
    if (std::find(spec->tags.begin(), spec->tags.end(), use.tag) ==
        spec->tags.end()) {
      model.errors.push_back(use.file + ":" + std::to_string(use.line) +
                             ": tag '" + use.tag +
                             "' is not declared in format '" + spec->key +
                             "' (tags= in core/format_versions.h)");
    }
  }
  for (const FormatSpec& spec : model.formats) {
    for (const std::string& tag : spec.tags) {
      if (tags_seen[spec.key].count(tag) == 0) {
        model.errors.push_back(
            "core/format_versions.h:" + std::to_string(spec.line) +
            ": format '" + spec.key + "' declares tag '" + tag +
            "' but no covered file spells it");
      }
    }
  }

  // Canonical order for rendering and determinism.
  std::sort(model.structs.begin(), model.structs.end(),
            [](const StructInfo& a, const StructInfo& b) {
              return a.alias < b.alias;
            });
  std::sort(model.sections.begin(), model.sections.end(),
            [](const OpSection& a, const OpSection& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  std::sort(model.errors.begin(), model.errors.end());
  model.errors.erase(std::unique(model.errors.begin(), model.errors.end()),
                     model.errors.end());
  return model;
}

std::string EmitProbeSource(const Model& model) {
  std::ostringstream out;
  out << "// Generated by kwsc-abi emit-probe. Do not edit.\n"
      << "//\n"
      << "// Measures the real layout of every KWSC_ABI_STRUCT* "
         "registration\n"
      << "// (sizeof / alignof / offsetof per field) and static_asserts the\n"
      << "// portability contract: trivially copyable, standard layout,\n"
      << "// little-endian host, and — for non-PADDED registrations — zero\n"
      << "// padding (field sizes sum to sizeof).\n"
      << "#include <bit>\n"
      << "#include <cstddef>\n"
      << "#include <cstdio>\n"
      << "#include <type_traits>\n\n";
  std::set<std::string> includes;
  for (const StructInfo& info : model.structs) {
    std::string path = info.file;
    if (StartsWith(path, "src/")) path = path.substr(4);
    includes.insert(path);
  }
  for (const std::string& path : includes) {
    out << "#include \"" << path << "\"\n";
  }
  out << "\nstatic_assert(std::endian::native == std::endian::little,\n"
      << "              \"kwsc on-disk formats are little-endian\");\n\n"
      << "int main() {\n";
  for (const StructInfo& info : model.structs) {
    out << "  {\n"
        << "    using T = kwsc::KwscAbi_" << info.alias << ";\n"
        << "    static_assert(std::is_trivially_copyable_v<T>);\n"
        << "    static_assert(std::is_standard_layout_v<T>);\n";
    if (!info.padded && !info.fields.empty()) {
      out << "    static_assert(";
      for (size_t i = 0; i < info.fields.size(); ++i) {
        if (i > 0) out << " + ";
        out << "sizeof(T::" << info.fields[i].name << ")";
      }
      out << " == sizeof(T),\n                  \"" << info.alias
          << ": padding crept into a non-PADDED ABI struct\");\n";
    }
    out << "    std::printf(\"struct " << info.alias
        << " size %zu align %zu\\n\", sizeof(T), alignof(T));\n";
    for (const Field& field : info.fields) {
      out << "    std::printf(\"field " << info.alias << " " << field.name
          << " offset %zu size %zu\\n\", offsetof(T, " << field.name
          << "), sizeof(T::" << field.name << "));\n";
    }
    out << "  }\n";
  }
  out << "  return 0;\n"
      << "}\n";
  return out.str();
}

ProbeLayout ParseProbeOutput(const std::string& text,
                             std::vector<std::string>* errors) {
  ProbeLayout layout;
  std::istringstream stream(text);
  std::string line;
  int lineno = 0;
  while (std::getline(stream, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "struct") {
      std::string alias, size_kw, align_kw;
      uint64_t size = 0, align = 0;
      fields >> alias >> size_kw >> size >> align_kw >> align;
      if (fields.fail() || size_kw != "size" || align_kw != "align") {
        errors->push_back("probe output line " + std::to_string(lineno) +
                          ": malformed struct line: " + line);
        continue;
      }
      layout[alias].size = size;
      layout[alias].align = align;
    } else if (kind == "field") {
      std::string alias, name, off_kw, size_kw;
      uint64_t offset = 0, size = 0;
      fields >> alias >> name >> off_kw >> offset >> size_kw >> size;
      if (fields.fail() || off_kw != "offset" || size_kw != "size") {
        errors->push_back("probe output line " + std::to_string(lineno) +
                          ": malformed field line: " + line);
        continue;
      }
      layout[alias].fields[name] = {offset, size};
    } else {
      errors->push_back("probe output line " + std::to_string(lineno) +
                        ": unrecognized: " + line);
    }
  }
  return layout;
}

std::string RenderManifest(const Model& model, const ProbeLayout& layout,
                           std::vector<std::string>* errors) {
  if (!model.errors.empty()) {
    errors->insert(errors->end(), model.errors.begin(), model.errors.end());
    return "";
  }
  // Bucket content under its owning format.
  std::vector<std::string> scratch;
  std::map<std::string, std::vector<const StructInfo*>> structs_by_format;
  std::map<std::string, std::vector<const OpSection*>> sections_by_format;
  std::map<std::string, std::set<std::string>> tags_by_format;
  for (const StructInfo& info : model.structs) {
    const FormatSpec* spec = FormatForPath(model, info.file, &scratch);
    if (spec != nullptr) structs_by_format[spec->key].push_back(&info);
  }
  for (const OpSection& section : model.sections) {
    const FormatSpec* spec = FormatForPath(model, section.file, &scratch);
    if (spec != nullptr) sections_by_format[spec->key].push_back(&section);
  }
  for (const TagUse& use : model.tags) {
    const FormatSpec* spec = FormatForPath(model, use.file, &scratch);
    if (spec != nullptr) tags_by_format[spec->key].insert(use.tag);
  }

  std::ostringstream out;
  out << "# FORMATS.lock — the canonical format/ABI manifest.\n"
      << "#\n"
      << "# Generated by kwsc-abi from the sources under src/; do not edit "
         "by hand.\n"
      << "# Regenerate: tools/run_abi.sh --update   (or: cmake --build "
         "build --target abi)\n"
      << "#\n"
      << "# Any diff under a `format` block must land together with a bump "
         "of that\n"
      << "# format's version constant in src/core/format_versions.h — the "
         "abi-gate\n"
      << "# (tools/run_abi.sh, CI job abi-gate) enforces both halves.\n";

  std::vector<const FormatSpec*> formats;
  for (const FormatSpec& spec : model.formats) formats.push_back(&spec);
  std::sort(formats.begin(), formats.end(),
            [](const FormatSpec* a, const FormatSpec* b) {
              return a->key < b->key;
            });
  for (const FormatSpec* spec : formats) {
    out << "\nformat " << spec->key << " version " << spec->version
        << " constant " << spec->constant << "\n";
    for (const std::string& tag : tags_by_format[spec->key]) {
      out << "  tag " << tag << "\n";
    }
    for (const StructInfo* info : structs_by_format[spec->key]) {
      auto it = layout.find(info->alias);
      if (it == layout.end()) {
        errors->push_back("registration '" + info->alias +
                          "' has no probe measurement (stale probe binary?)");
        continue;
      }
      const ProbeStruct& probe = it->second;
      out << "  struct " << info->alias << " type " << info->type << " size "
          << probe.size << " align " << probe.align << "\n";
      uint64_t cursor = 0;
      bool offsets_ok = true;
      for (const Field& field : info->fields) {
        auto fit = probe.fields.find(field.name);
        if (fit == probe.fields.end()) {
          errors->push_back("field '" + info->alias + "." + field.name +
                            "' has no probe measurement");
          offsets_ok = false;
          continue;
        }
        out << "    field " << field.name << " " << field.type << field.array
            << " offset " << fit->second.offset << " size " << fit->second.size
            << "\n";
        // Record padding gaps so a moved gap diffs even when offsets of the
        // surviving fields do not.
        if (fit->second.offset > cursor) {
          out << "    padding offset " << cursor << " len "
              << (fit->second.offset - cursor) << "\n";
        }
        cursor = std::max(cursor, fit->second.offset + fit->second.size);
      }
      if (offsets_ok && cursor < probe.size) {
        out << "    padding offset " << cursor << " len "
            << (probe.size - cursor) << "\n";
      }
    }
    for (const OpSection* section : sections_by_format[spec->key]) {
      out << "  section " << section->file << " " << section->function << "\n";
      for (const FormatOp& op : section->ops) {
        out << "    op " << op.kind;
        if (!op.detail.empty()) out << " " << op.detail;
        out << "\n";
      }
    }
  }
  if (!errors->empty()) return "";
  return out.str();
}

namespace {

struct FormatBlock {
  uint32_t version = 0;
  std::string constant;
  std::vector<std::string> body;
};

std::map<std::string, FormatBlock> ParseManifest(const std::string& text) {
  std::map<std::string, FormatBlock> blocks;
  std::istringstream stream(text);
  std::string line;
  std::string current;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (StartsWith(line, "format ")) {
      std::istringstream fields(line);
      std::string kw, key, version_kw, constant_kw;
      uint32_t version = 0;
      FormatBlock block;
      fields >> kw >> key >> version_kw >> version >> constant_kw >>
          block.constant;
      block.version = version;
      current = key;
      blocks[current] = std::move(block);
      continue;
    }
    if (!current.empty()) blocks[current].body.push_back(line);
  }
  return blocks;
}

}  // namespace

DiffResult DiffManifests(const std::string& old_text,
                         const std::string& new_text) {
  DiffResult result;
  const auto old_blocks = ParseManifest(old_text);
  const auto new_blocks = ParseManifest(new_text);
  std::set<std::string> keys;
  for (const auto& [key, block] : old_blocks) keys.insert(key);
  for (const auto& [key, block] : new_blocks) keys.insert(key);
  for (const std::string& key : keys) {
    const auto old_it = old_blocks.find(key);
    const auto new_it = new_blocks.find(key);
    if (new_it == new_blocks.end()) {
      result.violations.push_back(
          "format '" + key +
          "' was removed from the manifest; formats may gain versions but "
          "never vanish (readers of old files need the contract on record)");
      continue;
    }
    if (old_it == old_blocks.end()) {
      result.changes.push_back("format '" + key + "' added (version " +
                               std::to_string(new_it->second.version) + ")");
      continue;
    }
    const FormatBlock& old_block = old_it->second;
    const FormatBlock& new_block = new_it->second;
    if (new_block.version < old_block.version) {
      result.violations.push_back(
          "format '" + key + "': version went backwards (" +
          std::to_string(old_block.version) + " -> " +
          std::to_string(new_block.version) + "); versions only grow");
    }
    if (old_block.body == new_block.body) continue;
    // Trim the common prefix/suffix to show just the drift.
    const auto& a = old_block.body;
    const auto& b = new_block.body;
    size_t prefix = 0;
    while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) {
      ++prefix;
    }
    size_t suffix = 0;
    while (suffix < a.size() - prefix && suffix < b.size() - prefix &&
           a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix]) {
      ++suffix;
    }
    std::string detail = "format '" + key + "' changed:";
    constexpr size_t kMaxShown = 20;
    size_t shown = 0;
    for (size_t i = prefix; i < a.size() - suffix && shown < kMaxShown;
         ++i, ++shown) {
      detail += "\n  -" + a[i];
    }
    for (size_t i = prefix; i < b.size() - suffix && shown < 2 * kMaxShown;
         ++i, ++shown) {
      detail += "\n  +" + b[i];
    }
    result.changes.push_back(detail);
    if (new_block.version <= old_block.version) {
      result.violations.push_back(
          "format '" + key + "': locked content changed but version stayed " +
          std::to_string(old_block.version) + "; bump " + new_block.constant +
          " in src/core/format_versions.h in the same change");
    }
  }
  return result;
}

std::vector<SourceFile> LoadTree(const std::string& repo_root) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> sources;
  const fs::path src = fs::path(repo_root) / "src";
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    sources.push_back({fs::relative(entry.path(), fs::path(repo_root))
                           .generic_string(),
                       contents.str()});
  }
  std::sort(sources.begin(), sources.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return sources;
}

}  // namespace abi
}  // namespace kwsc
