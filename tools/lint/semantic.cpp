// Cross-TU semantic pass for cynthia-lint: UNITS-002/003/004 and LOCK-001.
//
// Pipeline: every file is lexed with the shared lexer (lexer.hpp) and parsed
// into a per-file symbol table — typedefs/aliases, struct fields, function
// signatures with body token spans, namespace-scope variables. Files are then
// linked over the quoted-include graph (an #include "core/x.hpp" resolves to
// the scanned file whose path ends with that suffix), giving each translation
// unit a merged view of everything it can see. A dimensional-inference pass
// walks every function body with a precedence-climbing expression parser,
// propagating Dim values (semantic.hpp) from strong util/units.hpp types,
// from the annotation registry over legacy double names, and across call
// edges via the linked signature index. A separate linear pass checks lock
// discipline per function and lock-acquisition order across the whole scan.
//
// The analysis is deliberately conservative: any construct it cannot parse
// or resolve collapses to "unknown" dimension, and findings are only emitted
// when BOTH sides of an operation have known, distinct, non-dimensionless
// dimensions. False negatives are acceptable; false positives break the
// ratchet and are not.

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/lint/lexer.hpp"
#include "tools/lint/lint.hpp"
#include "tools/lint/semantic.hpp"

namespace cynthia::lint {

namespace semantic {

namespace {
constexpr int kFlop = 0;
constexpr int kByte = 1;
constexpr int kSecond = 2;
constexpr int kDollar = 3;
}  // namespace

Dim unknown_dim() { return {}; }

Dim dimensionless() {
  Dim d;
  d.known = true;
  return d;
}

namespace {
Dim base_dim(int axis) {
  Dim d = dimensionless();
  d.e[axis] = 1;
  return d;
}
}  // namespace

Dim flop_dim() { return base_dim(kFlop); }
Dim byte_dim() { return base_dim(kByte); }
Dim second_dim() { return base_dim(kSecond); }
Dim dollar_dim() { return base_dim(kDollar); }

bool is_dimensionless(const Dim& d) {
  return d.known && d.e == std::array<int, 4>{};
}

Dim mul(const Dim& a, const Dim& b) {
  if (!a.known || !b.known) return unknown_dim();
  Dim d = dimensionless();
  for (int i = 0; i < 4; ++i) d.e[i] = a.e[i] + b.e[i];
  return d;
}

Dim div(const Dim& a, const Dim& b) {
  if (!a.known || !b.known) return unknown_dim();
  Dim d = dimensionless();
  for (int i = 0; i < 4; ++i) d.e[i] = a.e[i] - b.e[i];
  return d;
}

namespace {
Dim rate(const Dim& num) { return div(num, second_dim()); }
}  // namespace

std::string dim_name(const Dim& d) {
  if (!d.known) return "unknown";
  if (is_dimensionless(d)) return "dimensionless";
  struct Named {
    Dim dim;
    const char* name;
  };
  const Named named[] = {
      {flop_dim(), "GFLOPs"},          {rate(flop_dim()), "GFLOP/s"},
      {byte_dim(), "MB"},              {rate(byte_dim()), "MB/s"},
      {second_dim(), "seconds"},       {dollar_dim(), "dollars"},
      {rate(dollar_dim()), "dollars/hour"},
  };
  for (const Named& n : named) {
    if (n.dim == d) return n.name;
  }
  const char* axes[] = {"GFLOP", "MB", "s", "$"};
  std::string out;
  for (int i = 0; i < 4; ++i) {
    if (d.e[i] == 0) continue;
    if (!out.empty()) out += "·";
    out += axes[i];
    if (d.e[i] != 1) out += "^" + std::to_string(d.e[i]);
  }
  return out;
}

std::optional<Dim> registry_dim(const std::string& name) {
  const std::string n = lower(name);
  struct Entry {
    const char* suffix;
    Dim dim;
  };
  // Case-insensitive name-ending matches. Deliberately narrow: generic
  // endings like "_time" or "_cost" are NOT here — they cover planner
  // aggregates (ProvisionPlan::total_time, ...) that stay raw double by
  // design, and registering them would put false UNITS-002 pressure on
  // structs outside the migration scope. Longest suffixes first so e.g.
  // "usd_per_hour" wins over "_usd".
  static const std::vector<Entry> entries = {
      {"usd_per_hour", rate(dollar_dim())},
      {"price_per_hour", rate(dollar_dim())},
      {"cost_per_hour", rate(dollar_dim())},
      {"seconds", second_dim()},
      {"_secs", second_dim()},
      {"minutes", second_dim()},
      {"hours", second_dim()},
      {"dollars", dollar_dim()},
      {"_usd", dollar_dim()},
      {"gflops", rate(flop_dim())},  // capability tables quote GFLOP/s rates
      {"mbps", rate(byte_dim())},
      {"megabytes", byte_dim()},
      {"_mb", byte_dim()},
  };
  for (const Entry& e : entries) {
    if (n.ends_with(e.suffix)) return e.dim;
  }
  return std::nullopt;
}

std::string suggested_type(const Dim& d) {
  if (d == second_dim()) return "util::Seconds";
  if (d == dollar_dim()) return "util::Dollars";
  if (d == rate(dollar_dim())) return "util::DollarsPerHour";
  if (d == byte_dim()) return "util::MegaBytes";
  if (d == rate(byte_dim())) return "util::MBps";
  if (d == flop_dim()) return "util::GFlops";
  if (d == rate(flop_dim())) return "util::GFlopsRate";
  return {};
}

}  // namespace semantic

namespace {

using semantic::Dim;
using semantic::dim_name;
using semantic::dimensionless;
using semantic::is_dimensionless;
using semantic::registry_dim;
using semantic::suggested_type;
using semantic::unknown_dim;

// ------------------------------------------------------------ symbol tables

/// Strong unit types from util/units.hpp, keyed by their unqualified name.
const std::map<std::string, Dim>& unit_types() {
  static const std::map<std::string, Dim> table = {
      {"GFlops", semantic::flop_dim()},
      {"GFlopsRate", semantic::div(semantic::flop_dim(), semantic::second_dim())},
      {"MegaBytes", semantic::byte_dim()},
      {"MBps", semantic::div(semantic::byte_dim(), semantic::second_dim())},
      {"Seconds", semantic::second_dim()},
      {"Dollars", semantic::dollar_dim()},
      {"DollarsPerHour", semantic::div(semantic::dollar_dim(), semantic::second_dim())},
  };
  return table;
}

/// The unqualified tail of a parsed type, plus the flags inference needs.
struct TypeName {
  bool ok = false;
  std::string last;        ///< unqualified last identifier ("Seconds", "double")
  bool raw_double = false; ///< double/float (registry applies to the name)
  bool pointer = false;
  std::size_t end = 0;     ///< one past the consumed tokens
};

struct ParamDecl {
  TypeName type;
  std::string name;  ///< empty for unnamed params
  int line = 0;
};

struct FuncDecl {
  std::string owner;  ///< enclosing/qualifying struct name, empty for free fns
  std::string name;
  TypeName ret;
  std::vector<ParamDecl> params;
  bool has_body = false;
  std::size_t body_b = 0, body_e = 0;  ///< token span of the body, excl braces
  int line = 0;
};

struct FieldDecl {
  TypeName type;
  std::string name;
  int line = 0;
};

struct StructDecl {
  std::string name;
  std::vector<FieldDecl> fields;

  [[nodiscard]] const FieldDecl* field(const std::string& n) const {
    for (const FieldDecl& f : fields) {
      if (f.name == n) return &f;
    }
    return nullptr;
  }
};

struct GlobalDecl {
  TypeName type;
  int line = 0;
};

struct FileInfo {
  std::string path;
  std::vector<Token> tokens;  ///< preprocessor lines removed
  Suppressions sup;
  std::vector<std::string> includes;  ///< quoted include operands, as written
  std::map<std::string, TypeName> typedefs;
  std::map<std::string, StructDecl> structs;
  std::vector<FuncDecl> funcs;
  std::map<std::string, GlobalDecl> globals;
};

/// Merged, include-graph-resolved view one translation unit analyzes under.
struct Tu {
  const FileInfo* file = nullptr;
  std::map<std::string, TypeName> typedefs;
  std::map<std::string, const StructDecl*> structs;
  std::multimap<std::string, const FuncDecl*> funcs;
  std::map<std::string, GlobalDecl> globals;
};

// ----------------------------------------------------------------- parsing

bool is_punct(const std::vector<Token>& t, std::size_t i, std::string_view p) {
  return i < t.size() && t[i].kind == Token::Kind::Punct && t[i].text == p;
}

bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::Ident;
}

bool is_ident(const std::vector<Token>& t, std::size_t i, std::string_view name) {
  return is_ident(t, i) && t[i].text == name;
}

/// Index of the matching closer for the opener at `open`, or `limit` if
/// unbalanced. Openers/closers are single-char puncts ("(", "{", "[", "<").
std::size_t match_forward(const std::vector<Token>& t, std::size_t open,
                          std::string_view o, std::string_view c,
                          std::size_t limit) {
  int depth = 0;
  for (std::size_t i = open; i < limit; ++i) {
    if (t[i].kind != Token::Kind::Punct) continue;
    if (t[i].text == o) {
      ++depth;
    } else if (t[i].text == c) {
      if (--depth == 0) return i;
    }
  }
  return limit;
}

const std::set<std::string>& type_qualifiers() {
  static const std::set<std::string> q = {
      "const",   "constexpr", "static",  "inline",       "mutable",
      "volatile", "friend",   "typename", "thread_local", "register",
      "explicit", "virtual",  "extern"};
  return q;
}

const std::set<std::string>& non_type_keywords() {
  static const std::set<std::string> k = {
      "return",   "if",      "else",    "for",       "while",     "do",
      "switch",   "case",    "break",   "continue",  "goto",      "new",
      "delete",   "throw",   "using",   "namespace", "template",  "public",
      "private",  "protected", "operator", "sizeof",  "static_assert",
      "struct",   "class",   "enum",    "union",     "typedef",   "default",
      "co_return", "co_await", "try",   "catch",     "this"};
  return k;
}

const std::set<std::string>& builtin_type_words() {
  static const std::set<std::string> b = {"unsigned", "signed", "long",
                                          "short",    "int",    "char",
                                          "bool",     "double", "float"};
  return b;
}

/// Parses a type at `i`: qualifiers, a qualified identifier chain with
/// optional template arguments, builtin multi-word types, and trailing
/// pointer/reference declarators. Never emits findings — returns ok=false on
/// anything that does not look like a type.
TypeName parse_type(const std::vector<Token>& t, std::size_t i, std::size_t limit) {
  TypeName out;
  // Attributes: [[...]]
  while (i + 1 < limit && is_punct(t, i, "[") && is_punct(t, i + 1, "[")) {
    int depth = 0;
    while (i < limit) {
      if (is_punct(t, i, "[")) ++depth;
      if (is_punct(t, i, "]")) {
        if (--depth == 0) {
          ++i;
          break;
        }
      }
      ++i;
    }
  }
  while (is_ident(t, i) && type_qualifiers().contains(t[i].text)) ++i;
  if (!is_ident(t, i) || non_type_keywords().contains(t[i].text)) return out;

  if (builtin_type_words().contains(t[i].text)) {
    // Builtin sequence: "unsigned long long", "long double", ...
    bool has_double = false;
    while (is_ident(t, i) && builtin_type_words().contains(t[i].text)) {
      if (t[i].text == "double" || t[i].text == "float") has_double = true;
      out.last = t[i].text;
      ++i;
    }
    out.ok = true;
    out.raw_double = has_double;
  } else {
    // Qualified identifier chain: IDENT (:: IDENT)*, each link optionally
    // followed by template arguments.
    out.last = t[i].text;
    ++i;
    for (;;) {
      if (is_punct(t, i, "<")) {
        // Tentative template-argument skip; bail if it does not close
        // sanely (then "<" was a comparison and the type ends here).
        const std::size_t close = match_forward(t, i, "<", ">", std::min(limit, i + 64));
        bool sane = close < std::min(limit, i + 64);
        for (std::size_t k = i; sane && k < close; ++k) {
          if (is_punct(t, k, ";") || is_punct(t, k, "{") || is_punct(t, k, "}"))
            sane = false;
        }
        if (!sane) break;
        i = close + 1;
        continue;
      }
      if (is_punct(t, i, ":") && is_punct(t, i + 1, ":") && is_ident(t, i + 2) &&
          !non_type_keywords().contains(t[i + 2].text)) {
        out.last = t[i + 2].text;
        i += 3;
        continue;
      }
      break;
    }
    out.ok = true;
    out.raw_double = out.last == "double" || out.last == "float";
  }
  while (i < limit && t[i].kind == Token::Kind::Punct &&
         (t[i].text == "*" || t[i].text == "&")) {
    if (t[i].text == "*") out.pointer = true;
    ++i;
  }
  out.end = i;
  return out;
}

/// Dimension a declared entity carries: strong unit type (possibly through a
/// typedef), else the registry over the declared name for raw doubles.
Dim type_dim_in(const std::map<std::string, TypeName>& typedefs, const TypeName& ty) {
  if (!ty.ok || ty.pointer) return unknown_dim();
  std::string last = ty.last;
  for (int hop = 0; hop < 4; ++hop) {  // typedef chains, cycle-proof
    auto u = unit_types().find(last);
    if (u != unit_types().end()) return u->second;
    auto td = typedefs.find(last);
    if (td == typedefs.end()) break;
    if (td->second.raw_double || !td->second.ok || td->second.last == last) break;
    last = td->second.last;
  }
  return unknown_dim();
}

Dim decl_dim_in(const std::map<std::string, TypeName>& typedefs, const TypeName& ty,
                const std::string& name) {
  const Dim strong = type_dim_in(typedefs, ty);
  if (strong.known) return strong;
  if (ty.ok && ty.raw_double && !ty.pointer) {
    if (auto reg = registry_dim(name)) return *reg;
  }
  return unknown_dim();
}

struct Parser {
  const std::vector<Token>& t;
  FileInfo& out;

  void skip_template_header(std::size_t& i) {
    ++i;  // "template"
    if (is_punct(t, i, "<")) {
      const std::size_t close = match_forward(t, i, "<", ">", t.size());
      i = close < t.size() ? close + 1 : t.size();
    }
  }

  /// Splits [b, e) on top-level commas (paren/brace/bracket/angle-free).
  std::vector<std::pair<std::size_t, std::size_t>> split_commas(std::size_t b,
                                                                std::size_t e) {
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    int depth = 0;
    std::size_t start = b;
    for (std::size_t i = b; i < e; ++i) {
      if (t[i].kind != Token::Kind::Punct) continue;
      const std::string& p = t[i].text;
      if (p == "(" || p == "{" || p == "[") ++depth;
      if (p == ")" || p == "}" || p == "]") --depth;
      if (p == "," && depth == 0) {
        spans.emplace_back(start, i);
        start = i + 1;
      }
    }
    if (start < e) spans.emplace_back(start, e);
    return spans;
  }

  ParamDecl parse_param(std::size_t b, std::size_t e) {
    ParamDecl p;
    if (b >= e) return p;
    p.line = t[b].line;
    TypeName ty = parse_type(t, b, e);
    if (!ty.ok) return p;
    p.type = ty;
    if (is_ident(t, ty.end) && !non_type_keywords().contains(t[ty.end].text)) {
      p.name = t[ty.end].text;
      p.line = t[ty.end].line;
    }
    return p;
  }

  /// Parses the declaration whose type has already been read. Returns the
  /// resume index, or `b` unchanged if nothing recognizable follows.
  std::size_t parse_after_type(const TypeName& ty, std::size_t b, StructDecl* ctx) {
    std::size_t j = ty.end;
    // Constructor definitions: the qualified chain ends Foo::Foo, or in-class
    // the "type" IS the struct name and "(" follows directly.
    const bool inclass_ctor = ctx != nullptr && ty.last == ctx->name && is_punct(t, j, "(");
    std::string owner = ctx != nullptr ? ctx->name : "";
    std::string name;
    if (inclass_ctor) {
      name = ty.last;
    } else {
      if (!is_ident(t, j) || non_type_keywords().contains(t[j].text)) return b;
      name = t[j].text;
      ++j;
      while (is_punct(t, j, ":") && is_punct(t, j + 1, ":") && is_ident(t, j + 2)) {
        owner = name;
        name = t[j + 2].text;
        j += 3;
      }
    }
    if (is_punct(t, j, "(")) {
      const std::size_t close = match_forward(t, j, "(", ")", t.size());
      if (close >= t.size()) return b;
      FuncDecl fn;
      fn.owner = owner;
      fn.name = name;
      fn.ret = inclass_ctor ? TypeName{} : ty;
      fn.line = t[j].line;
      for (auto [pb, pe] : split_commas(j + 1, close)) {
        fn.params.push_back(parse_param(pb, pe));
      }
      std::size_t k = close + 1;
      while (is_ident(t, k) &&
             (t[k].text == "const" || t[k].text == "noexcept" ||
              t[k].text == "override" || t[k].text == "final")) {
        ++k;
        if (is_punct(t, k, "(")) {  // noexcept(...)
          k = match_forward(t, k, "(", ")", t.size()) + 1;
        }
      }
      if (is_punct(t, k, "-") && is_punct(t, k + 1, ">")) {
        // Trailing return type: skip to the body/terminator.
        k += 2;
        const TypeName ret = parse_type(t, k, t.size());
        if (ret.ok) {
          fn.ret = ret;
          k = ret.end;
        }
      }
      if (is_punct(t, k, ":")) {  // constructor init list
        while (k < t.size() && !is_punct(t, k, "{") && !is_punct(t, k, ";")) {
          if (is_punct(t, k, "(")) {
            k = match_forward(t, k, "(", ")", t.size());
          } else if (is_punct(t, k, "{")) {
            break;
          }
          ++k;
        }
      }
      if (is_punct(t, k, "{")) {
        const std::size_t body_close = match_forward(t, k, "{", "}", t.size());
        if (body_close >= t.size()) return b;
        fn.has_body = true;
        fn.body_b = k + 1;
        fn.body_e = body_close;
        out.funcs.push_back(std::move(fn));
        return body_close + 1;
      }
      if (is_punct(t, k, "=")) {  // = default / = delete / = 0
        while (k < t.size() && !is_punct(t, k, ";")) ++k;
        out.funcs.push_back(std::move(fn));
        return k + 1;
      }
      if (is_punct(t, k, ";")) {
        out.funcs.push_back(std::move(fn));
        return k + 1;
      }
      return b;
    }
    // Variable / field declaration.
    if (is_punct(t, j, ";") || is_punct(t, j, "=") || is_punct(t, j, "{") ||
        is_punct(t, j, "[")) {
      std::size_t k = j;
      while (k < t.size() && !is_punct(t, k, ";")) {
        if (is_punct(t, k, "{")) {
          k = match_forward(t, k, "{", "}", t.size());
        } else if (is_punct(t, k, "(")) {
          k = match_forward(t, k, "(", ")", t.size());
        }
        ++k;
      }
      if (ctx != nullptr) {
        ctx->fields.push_back({ty, name, t[ty.end].line});
      } else {
        out.globals[name] = {ty, t[ty.end].line};
      }
      return k + 1;
    }
    return b;
  }

  void parse_using(std::size_t& i) {
    // using NAME = TYPE;   |   using namespace ...;   |   using Base::Base;
    ++i;
    if (is_ident(t, i) && !is_ident(t, i, "namespace") && is_punct(t, i + 1, "=")) {
      const std::string alias = t[i].text;
      const TypeName ty = parse_type(t, i + 2, t.size());
      if (ty.ok) out.typedefs[alias] = ty;
    }
    while (i < t.size() && !is_punct(t, i, ";")) ++i;
    ++i;
  }

  void parse_typedef(std::size_t& i) {
    ++i;
    const TypeName ty = parse_type(t, i, t.size());
    if (ty.ok && is_ident(t, ty.end) && is_punct(t, ty.end + 1, ";")) {
      out.typedefs[t[ty.end].text] = ty;
    }
    while (i < t.size() && !is_punct(t, i, ";")) ++i;
    ++i;
  }

  void skip_operator(std::size_t& i) {
    // operator+(...), operator()(...) etc. — find the parameter list, then
    // skip the body or the terminator. Dimensions of overloaded operators
    // are the strong types' own business.
    while (i < t.size() && !is_punct(t, i, "(")) ++i;
    if (is_punct(t, i, "(") && is_punct(t, i + 1, ")") && is_punct(t, i + 2, "(")) {
      i += 2;  // operator()
    }
    if (i >= t.size()) return;
    i = match_forward(t, i, "(", ")", t.size()) + 1;
    while (i < t.size() && !is_punct(t, i, "{") && !is_punct(t, i, ";")) ++i;
    if (is_punct(t, i, "{")) i = match_forward(t, i, "{", "}", t.size());
    ++i;
  }

  void scan_decls(std::size_t b, std::size_t e, StructDecl* ctx) {
    std::size_t i = b;
    while (i < e) {
      if (t[i].kind == Token::Kind::Punct) {
        if (t[i].text == "#") {  // preprocessor remnant (should be filtered)
          const int line = t[i].line;
          while (i < e && t[i].line == line) ++i;
          continue;
        }
        ++i;
        continue;
      }
      if (t[i].kind == Token::Kind::Number) {
        ++i;
        continue;
      }
      const std::string& w = t[i].text;
      if (w == "template") {
        skip_template_header(i);
        continue;
      }
      if (w == "namespace") {
        ++i;
        while (i < e && !is_punct(t, i, "{") && !is_punct(t, i, ";")) ++i;
        if (is_punct(t, i, "{")) {
          const std::size_t close = match_forward(t, i, "{", "}", e);
          scan_decls(i + 1, close, nullptr);
          i = close + 1;
        } else {
          ++i;
        }
        continue;
      }
      if (w == "using") {
        parse_using(i);
        continue;
      }
      if (w == "typedef") {
        parse_typedef(i);
        continue;
      }
      if (w == "enum") {
        while (i < e && !is_punct(t, i, "{") && !is_punct(t, i, ";")) ++i;
        if (is_punct(t, i, "{")) i = match_forward(t, i, "{", "}", e);
        while (i < e && !is_punct(t, i, ";")) ++i;
        ++i;
        continue;
      }
      if (w == "struct" || w == "class" || w == "union") {
        if (!is_ident(t, i + 1)) {
          ++i;
          continue;
        }
        const std::string sname = t[i + 1].text;
        std::size_t j = i + 2;
        while (j < e && !is_punct(t, j, "{") && !is_punct(t, j, ";")) ++j;
        if (is_punct(t, j, ";")) {  // forward declaration / elaborated use
          i = j + 1;
          continue;
        }
        if (!is_punct(t, j, "{")) {
          ++i;
          continue;
        }
        const std::size_t close = match_forward(t, j, "{", "}", e);
        StructDecl& sd = out.structs[sname];
        sd.name = sname;
        scan_decls(j + 1, close, &sd);
        i = close + 1;
        while (i < e && !is_punct(t, i, ";")) {
          // struct X { ... } instance; — skip trailing declarators.
          ++i;
        }
        ++i;
        continue;
      }
      if (w == "public" || w == "private" || w == "protected") {
        ++i;
        if (is_punct(t, i, ":")) ++i;
        continue;
      }
      if (w == "operator") {
        skip_operator(i);
        continue;
      }
      if (w == "static_assert") {
        while (i < e && !is_punct(t, i, ";")) ++i;
        ++i;
        continue;
      }
      if (non_type_keywords().contains(w)) {
        ++i;
        continue;
      }
      const TypeName ty = parse_type(t, i, e);
      if (ty.ok) {
        if (is_ident(t, ty.end, "operator")) {
          std::size_t j = ty.end;
          skip_operator(j);
          i = j;
          continue;
        }
        const std::size_t resume = parse_after_type(ty, i, ctx);
        if (resume != i) {
          i = resume;
          continue;
        }
      }
      ++i;
    }
  }
};

/// Quoted-#include operands parsed from the RAW source (strip() blanks
/// string contents, so this must run on the original text).
std::vector<std::string> parse_includes(std::string_view src) {
  std::vector<std::string> incs;
  for (const std::string& raw : split_lines(src)) {
    std::size_t p = raw.find_first_not_of(" \t");
    if (p == std::string::npos || raw[p] != '#') continue;
    p = raw.find("include", p);
    if (p == std::string::npos) continue;
    const std::size_t q1 = raw.find('"', p);
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = raw.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    incs.push_back(raw.substr(q1 + 1, q2 - q1 - 1));
  }
  return incs;
}

FileInfo parse_file(const std::string& path, std::string_view content) {
  FileInfo fi;
  fi.path = path;
  const std::vector<Line> lines = strip(content);
  fi.sup = parse_suppressions(lines);
  fi.includes = parse_includes(content);
  const std::vector<Token> all = tokenize(lines);
  // Drop preprocessor lines: every token on a line whose first token is '#'.
  std::set<int> pp_lines;
  int prev_line = -1;
  for (const Token& tok : all) {
    if (tok.line != prev_line) {
      prev_line = tok.line;
      if (tok.kind == Token::Kind::Punct && tok.text == "#") pp_lines.insert(tok.line);
    }
  }
  for (const Token& tok : all) {
    if (!pp_lines.contains(tok.line)) fi.tokens.push_back(tok);
  }
  Parser p{fi.tokens, fi};
  p.scan_decls(0, fi.tokens.size(), nullptr);
  return fi;
}

// ------------------------------------------------------------ include graph

/// files[i] sees files[j] iff j is reachable over quoted includes (suffix
/// match of the include operand against scanned paths).
std::vector<std::vector<std::size_t>> link_includes(const std::vector<FileInfo>& files) {
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < files.size(); ++i) {
    by_path[normalized(files[i].path)] = i;
  }
  auto resolve = [&](const std::string& inc) -> std::vector<std::size_t> {
    std::vector<std::size_t> hits;
    const std::string n = normalized(inc);
    for (const auto& [path, idx] : by_path) {
      if (path == n || path.ends_with("/" + n)) hits.push_back(idx);
    }
    return hits;
  };
  std::vector<std::vector<std::size_t>> adj(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const std::string& inc : files[i].includes) {
      for (std::size_t j : resolve(inc)) adj[i].push_back(j);
    }
  }
  std::vector<std::vector<std::size_t>> visible(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::set<std::size_t> seen;
    std::vector<std::size_t> stack = {i};
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      if (!seen.insert(v).second) continue;
      for (std::size_t w : adj[v]) stack.push_back(w);
    }
    visible[i].assign(seen.begin(), seen.end());
  }
  return visible;
}

Tu make_tu(const std::vector<FileInfo>& files, const std::vector<std::size_t>& vis,
           std::size_t self) {
  Tu tu;
  tu.file = &files[self];
  for (std::size_t idx : vis) {
    const FileInfo& f = files[idx];
    for (const auto& [name, ty] : f.typedefs) tu.typedefs.emplace(name, ty);
    for (const auto& [name, sd] : f.structs) tu.structs.emplace(name, &sd);
    for (const FuncDecl& fn : f.funcs) tu.funcs.emplace(fn.name, &fn);
    for (const auto& [name, g] : f.globals) tu.globals.emplace(name, g);
  }
  return tu;
}

// --------------------------------------------------- dimensional inference

struct Val {
  Dim dim;
  std::string type_last;  ///< struct/unit type of the value when known
};

struct VarInfo {
  Dim dim;
  std::string type_last;
};

struct Analyzer {
  const Tu& tu;
  const FuncDecl& fn;
  std::vector<Finding>& out;

  std::map<std::string, VarInfo> env;
  const std::vector<Token>& t;

  Analyzer(const Tu& tu_in, const FuncDecl& fn_in, std::vector<Finding>& sink)
      : tu(tu_in), fn(fn_in), out(sink), t(tu_in.file->tokens) {
    for (const ParamDecl& p : fn.params) {
      if (p.name.empty()) continue;
      env[p.name] = {decl_dim_in(tu.typedefs, p.type, p.name), p.type.last};
    }
  }

  Dim type_dim(const TypeName& ty) const { return type_dim_in(tu.typedefs, ty); }

  void emit(const std::string& rule, int line, std::string message) {
    if (tu.file->sup.allows(rule, line)) return;
    out.push_back({tu.file->path, line, rule, std::move(message)});
  }

  // ---- symbol resolution

  const StructDecl* struct_of(const std::string& type_last) const {
    auto it = tu.structs.find(type_last);
    return it != tu.structs.end() ? it->second : nullptr;
  }

  /// Field dim: via the receiver's struct when known, else by consensus over
  /// every struct in scope declaring that field name (conflicts → unknown).
  Val member_val(const Val& recv, const std::string& name) const {
    if (const StructDecl* sd = struct_of(recv.type_last)) {
      if (const FieldDecl* f = sd->field(name)) {
        return {decl_dim_in(tu.typedefs, f->type, f->name), f->type.last};
      }
    }
    Val consensus;
    bool first = true;
    for (const auto& [sname, sd] : tu.structs) {
      const FieldDecl* f = sd->field(name);
      if (f == nullptr) continue;
      const Val v{decl_dim_in(tu.typedefs, f->type, f->name), f->type.last};
      if (first) {
        consensus = v;
        first = false;
      } else if (!(consensus.dim == v.dim)) {
        return {};  // conflicting declarations — stay unknown
      }
    }
    return first ? Val{} : consensus;
  }

  Val ident_val(const std::string& name) const {
    if (name == "true" || name == "false" || name == "nullptr") {
      return {dimensionless(), ""};
    }
    auto it = env.find(name);
    if (it != env.end()) return {it->second.dim, it->second.type_last};
    if (!fn.owner.empty()) {
      if (const StructDecl* self = struct_of(fn.owner)) {
        if (const FieldDecl* f = self->field(name)) {
          return {decl_dim_in(tu.typedefs, f->type, f->name), f->type.last};
        }
      }
    }
    auto g = tu.globals.find(name);
    if (g != tu.globals.end()) {
      return {decl_dim_in(tu.typedefs, g->second.type, name), g->second.type.last};
    }
    return {};
  }

  Dim func_ret_dim(const FuncDecl& f) const {
    const Dim strong = type_dim(f.ret);
    if (strong.known) return strong;
    if (f.ret.ok && f.ret.raw_double && !f.ret.pointer) {
      if (auto reg = registry_dim(f.name)) return *reg;
    }
    return unknown_dim();
  }

  Dim param_dim(const FuncDecl& f, std::size_t idx) const {
    if (idx >= f.params.size()) return unknown_dim();
    const ParamDecl& p = f.params[idx];
    return decl_dim_in(tu.typedefs, p.type, p.name);
  }

  /// Candidate signatures for a call: same name, arity-compatible, and when
  /// `owner` is known, owner-matching decls are preferred over free ones.
  std::vector<const FuncDecl*> candidates(const std::string& name,
                                          const std::string& owner,
                                          std::size_t nargs) const {
    std::vector<const FuncDecl*> owned, any;
    auto [b, e] = tu.funcs.equal_range(name);
    for (auto it = b; it != e; ++it) {
      const FuncDecl* f = it->second;
      if (nargs > f->params.size()) continue;
      any.push_back(f);
      if (!owner.empty() && f->owner == owner) owned.push_back(f);
    }
    return !owned.empty() ? owned : any;
  }

  /// Checks the argument dims of a resolved call and returns its value.
  Val check_call(const std::string& name, const std::string& owner,
                 const std::vector<Val>& args, const std::vector<int>& arg_lines,
                 int call_line) {
    const std::vector<const FuncDecl*> cands = candidates(name, owner, args.size());
    if (cands.empty()) return {};
    for (std::size_t a = 0; a < args.size(); ++a) {
      if (!args[a].dim.known || is_dimensionless(args[a].dim)) continue;
      Dim want = param_dim(*cands[0], a);
      bool agreed = want.known;
      for (const FuncDecl* f : cands) {
        const Dim d = param_dim(*f, a);
        if (!d.known || !(d == want)) {
          agreed = false;
          break;
        }
      }
      if (!agreed || is_dimensionless(want)) continue;
      if (!(want == args[a].dim)) {
        const std::string pname = a < cands[0]->params.size() && !cands[0]->params[a].name.empty()
                                      ? "'" + cands[0]->params[a].name + "'"
                                      : "#" + std::to_string(a + 1);
        emit("UNITS-003", arg_lines[a],
             "passing " + dim_name(args[a].dim) + " where parameter " + pname + " of " +
                 name + "() expects " + dim_name(want));
      }
    }
    Dim ret = func_ret_dim(*cands[0]);
    std::string rtype = cands[0]->ret.last;
    for (const FuncDecl* f : cands) {
      if (!(func_ret_dim(*f) == ret)) {
        ret = unknown_dim();
        rtype.clear();
        break;
      }
    }
    (void)call_line;
    return {ret, rtype};
  }

  // ---- expression parsing (precedence climbing over a token span)

  std::size_t i = 0, lim = 0;
  int depth_ = 0;

  // Every lookahead is clamped to the active span: reading past `lim` would
  // let a sub-expression parse leak into sibling statements.
  bool at_punct(std::string_view p) const { return i < lim && is_punct(t, i, p); }
  bool pair_at(std::size_t k, std::string_view a, std::string_view b) const {
    return k + 1 < lim && is_punct(t, k, a) && is_punct(t, k + 1, b);
  }

  Val parse_expr_span(std::size_t b, std::size_t e) {
    const std::size_t si = i, sl = lim;
    i = b;
    lim = std::min(e, t.size());
    Val v = parse_assign();
    i = si;
    lim = sl;
    return v;
  }

  Val parse_assign() {
    if (++depth_ > 400) {  // pathological nesting: give up on the span
      --depth_;
      i = lim;
      return {};
    }
    Val v = parse_assign_impl();
    --depth_;
    return v;
  }

  Val parse_assign_impl() {
    Val l = parse_ternary();
    // Assignments inside expressions (rare at this level; statement-level
    // assignment splitting handles the common case).
    if (at_punct("=") && !pair_at(i, "=", "=")) {
      ++i;
      Val r = parse_assign();
      check_add_like(l, r, t[i > 0 ? i - 1 : 0].line, "assigning");
      return l;
    }
    return l;
  }

  Val parse_ternary() {
    Val c = parse_or();
    if (at_punct("?")) {
      ++i;
      Val a = parse_assign();
      if (at_punct(":")) ++i;
      Val b = parse_assign();
      (void)c;
      if (a.dim.known && b.dim.known && a.dim == b.dim) return a;
      if (a.dim.known && is_dimensionless(b.dim)) return a;
      if (b.dim.known && is_dimensionless(a.dim)) return b;
      return {};
    }
    return c;
  }

  Val parse_or() {
    Val l = parse_and();
    while (pair_at(i, "|", "|")) {
      i += 2;
      parse_and();
      l = {dimensionless(), ""};
    }
    return l;
  }

  Val parse_and() {
    Val l = parse_bitor();
    while (pair_at(i, "&", "&")) {
      i += 2;
      parse_bitor();
      l = {dimensionless(), ""};
    }
    return l;
  }

  Val parse_bitor() {
    Val l = parse_eq();
    while ((at_punct("|") && !pair_at(i, "|", "|")) || at_punct("^") ||
           (at_punct("&") && !pair_at(i, "&", "&"))) {
      ++i;
      parse_eq();
      l = {};
    }
    return l;
  }

  Val parse_eq() {
    Val l = parse_cmp();
    while (pair_at(i, "=", "=") || pair_at(i, "!", "=")) {
      const int line = t[i].line;
      i += 2;
      Val r = parse_cmp();
      check_add_like(l, r, line, "comparing");
      l = {dimensionless(), ""};
    }
    return l;
  }

  Val parse_cmp() {
    Val l = parse_add();
    for (;;) {
      if (pair_at(i, "<", "<") || pair_at(i, ">", ">")) {
        // Stream insertion / shifts: dims are out the window; keep walking
        // the operands for nested violations, result unknown.
        i += 2;
        parse_add();
        l = {};
        continue;
      }
      if (pair_at(i, "<", "=") || pair_at(i, ">", "=")) {
        const int line = t[i].line;
        i += 2;
        Val r = parse_add();
        check_add_like(l, r, line, "comparing");
        l = {dimensionless(), ""};
        continue;
      }
      if ((at_punct("<") || at_punct(">")) && !pair_at(i, "-", ">")) {
        const int line = t[i].line;
        ++i;
        Val r = parse_add();
        check_add_like(l, r, line, "comparing");
        l = {dimensionless(), ""};
        continue;
      }
      break;
    }
    return l;
  }

  Val parse_add() {
    Val l = parse_mul();
    for (;;) {
      if ((at_punct("+") || at_punct("-")) && !pair_at(i, "+", "+") &&
          !pair_at(i, "-", "-") && !pair_at(i, "+", "=") && !pair_at(i, "-", "=") &&
          !pair_at(i, "-", ">")) {
        const char op = t[i].text[0];
        const int line = t[i].line;
        ++i;
        Val r = parse_mul();
        check_add_like(l, r, line, op == '+' ? "adding" : "subtracting");
        l = combine_add(l, r);
        continue;
      }
      break;
    }
    return l;
  }

  Val parse_mul() {
    Val l = parse_unary();
    for (;;) {
      if ((at_punct("*") || at_punct("/") || at_punct("%")) && !pair_at(i, "*", "=") &&
          !pair_at(i, "/", "=") && !pair_at(i, "%", "=")) {
        const char op = t[i].text[0];
        ++i;
        Val r = parse_unary();
        if (op == '*') {
          l = {semantic::mul(l.dim, r.dim), ""};
        } else if (op == '/') {
          l = {semantic::div(l.dim, r.dim), ""};
        } else {
          l = {};
        }
        continue;
      }
      break;
    }
    return l;
  }

  Val parse_unary() {
    if (at_punct("!")) {
      ++i;
      parse_unary();
      return {dimensionless(), ""};
    }
    if (at_punct("-") || at_punct("+") || at_punct("*") || at_punct("&") ||
        at_punct("~")) {
      if (pair_at(i, "+", "+") || pair_at(i, "-", "-")) {
        i += 2;
        return parse_unary();  // pre-inc/dec
      }
      ++i;
      Val v = parse_unary();
      return {v.dim, v.type_last};  // sign/deref/addr keep the dimension
    }
    return parse_postfix();
  }

  /// Parses a parenthesized argument list starting at "("; returns arg
  /// values and their source lines, positions `i` past ")".
  void parse_args(std::vector<Val>& args, std::vector<int>& lines) {
    const std::size_t close = match_forward(t, i, "(", ")", lim);
    const auto spans = Parser{t, const_cast<FileInfo&>(*tu.file)}.split_commas(i + 1, close);
    for (auto [b, e] : spans) {
      if (b >= e) continue;
      lines.push_back(t[b].line);
      args.push_back(parse_expr_span(b, e));
    }
    i = close < lim ? close + 1 : lim;
  }

  Val parse_postfix() {
    Val v = parse_primary();
    for (;;) {
      if (pair_at(i, "+", "+") || pair_at(i, "-", "-")) {
        i += 2;
        continue;
      }
      const bool dot = at_punct(".");
      const bool arrow = pair_at(i, "-", ">");
      if ((dot || arrow) && i + (dot ? 1 : 2) < lim && is_ident(t, i + (dot ? 1 : 2))) {
        const std::size_t name_at = i + (dot ? 1 : 2);
        const std::string member = t[name_at].text;
        i = name_at + 1;
        if (at_punct("(")) {
          std::vector<Val> args;
          std::vector<int> lines;
          const int call_line = t[name_at].line;
          parse_args(args, lines);
          v = method_val(v, member, args, lines, call_line);
        } else {
          v = member_val(v, member);
        }
        continue;
      }
      if (at_punct("[")) {
        const std::size_t close = match_forward(t, i, "[", "]", lim);
        parse_expr_span(i + 1, close);
        i = close < lim ? close + 1 : lim;
        v = {};  // element type unknown
        continue;
      }
      if (at_punct("(")) {
        // Call on a non-identifier value (functor, fn-pointer): walk args.
        std::vector<Val> args;
        std::vector<int> lines;
        parse_args(args, lines);
        v = {};
        continue;
      }
      break;
    }
    return v;
  }

  Val method_val(const Val& recv, const std::string& member,
                 const std::vector<Val>& args, const std::vector<int>& lines,
                 int call_line) {
    if (member == "value" && args.empty()) {
      return {recv.dim, ""};  // strong-type escape keeps the dimension
    }
    if (member == "size" || member == "count" || member == "length" ||
        member == "empty" || member == "capacity") {
      return {dimensionless(), ""};
    }
    static const std::set<std::string> kOpaque = {
        "begin",  "end",   "data",  "find",   "at",      "front", "back",
        "push_back", "emplace_back", "c_str", "str",     "clear", "reserve",
        "insert", "erase", "contains", "substr", "append", "get",  "reset"};
    if (kOpaque.contains(member)) return {};
    return check_call(member, recv.type_last, args, lines, call_line);
  }

  Val parse_primary() {
    if (i >= lim) return {};
    const Token& tok = t[i];
    if (tok.kind == Token::Kind::Number) {
      ++i;
      return {dimensionless(), ""};
    }
    if (at_punct("(")) {
      const std::size_t close = match_forward(t, i, "(", ")", lim);
      Val v = parse_expr_span(i + 1, close);
      i = close < lim ? close + 1 : lim;
      return v;
    }
    if (at_punct("[")) {
      // Lambda: skip capture list, parameters, optional trailing return,
      // and the body. Locals declared inside are out of scope here.
      std::size_t k = match_forward(t, i, "[", "]", lim) + 1;
      if (is_punct(t, k, "(")) k = match_forward(t, k, "(", ")", lim) + 1;
      while (k < lim && is_ident(t, k) &&
             (t[k].text == "mutable" || t[k].text == "noexcept")) {
        ++k;
      }
      if (is_punct(t, k, "-") && is_punct(t, k + 1, ">")) {
        const TypeName ret = parse_type(t, k + 2, lim);
        k = ret.ok ? ret.end : k + 2;
      }
      if (is_punct(t, k, "{")) k = match_forward(t, k, "{", "}", lim) + 1;
      i = std::min(k, lim);
      return {};
    }
    if (tok.kind == Token::Kind::Punct) {
      ++i;  // unexpected punct — consume conservatively
      return {};
    }
    // Identifier chains.
    if (tok.text == "static_cast" || tok.text == "const_cast" ||
        tok.text == "reinterpret_cast" || tok.text == "dynamic_cast") {
      ++i;
      TypeName ty;
      if (at_punct("<")) {
        const std::size_t close = match_forward(t, i, "<", ">", lim);
        ty = parse_type(t, i + 1, close);
        i = close < lim ? close + 1 : lim;
      }
      Val inner;
      if (at_punct("(")) {
        const std::size_t close = match_forward(t, i, "(", ")", lim);
        inner = parse_expr_span(i + 1, close);
        i = close < lim ? close + 1 : lim;
      }
      const Dim target = type_dim(ty);
      if (target.known) return {target, ty.last};
      // static_cast<double>(n): value-preserving — keep the operand's dim.
      return {inner.dim, ""};
    }
    if (tok.text == "sizeof" || tok.text == "alignof") {
      ++i;
      if (at_punct("(")) {
        const std::size_t close = match_forward(t, i, "(", ")", lim);
        i = close < lim ? close + 1 : lim;
      }
      return {dimensionless(), ""};
    }
    if (tok.text == "this") {
      ++i;
      return {unknown_dim(), fn.owner};
    }
    // Qualified chain IDENT (:: IDENT)*; the last identifier names the
    // entity; the second-to-last (if any) scopes it.
    std::vector<std::string> chain = {tok.text};
    ++i;
    while (pair_at(i, ":", ":") && i + 2 < lim && is_ident(t, i + 2)) {
      chain.push_back(t[i + 2].text);
      i += 3;
    }
    // Template arguments on the chain (std::max<double>, vector<int>{...}).
    if (at_punct("<")) {
      const std::size_t close = match_forward(t, i, "<", ">", std::min(lim, i + 64));
      bool sane = close < std::min(lim, i + 64);
      for (std::size_t k = i; sane && k < close; ++k) {
        if (is_punct(t, k, ";") || is_punct(t, k, "{")) sane = false;
      }
      if (sane && close + 1 < lim &&
          (is_punct(t, close + 1, "(") || is_punct(t, close + 1, "{") ||
           pair_at(close + 1, ":", ":"))) {
        i = close + 1;
        if (pair_at(i, ":", ":") && i + 2 < lim && is_ident(t, i + 2)) {
          chain.push_back(t[i + 2].text);
          i += 3;
        }
      }
    }
    const std::string& name = chain.back();
    if (at_punct("(")) {
      std::vector<Val> args;
      std::vector<int> lines;
      const int call_line = t[i].line;
      parse_args(args, lines);
      return call_val(name, args, lines, call_line);
    }
    if (at_punct("{")) {
      const std::size_t close = match_forward(t, i, "{", "}", lim);
      for (auto [b, e] : Parser{t, const_cast<FileInfo&>(*tu.file)}.split_commas(i + 1, close)) {
        parse_expr_span(b, e);  // walk for nested violations
      }
      i = close < lim ? close + 1 : lim;
      // Brace-construction of a unit type is the sanctioned conversion
      // escape hatch (Seconds{raw}); no mismatch check on the operand.
      const Dim d = type_dim_in(tu.typedefs, TypeName{true, name, false, false, 0});
      if (d.known) return {d, name};
      if (tu.structs.contains(name)) return {unknown_dim(), name};
      return {};
    }
    if (chain.size() == 1) return ident_val(name);
    // Scoped entity (Config::kDefault, util::kEpsilon, ...): try globals.
    auto g = tu.globals.find(name);
    if (g != tu.globals.end()) {
      return {decl_dim_in(tu.typedefs, g->second.type, name), g->second.type.last};
    }
    return {};
  }

  Val call_val(const std::string& name, const std::vector<Val>& args,
               const std::vector<int>& lines, int call_line) {
    // Unit-type constructor call: explicit conversion, dims by fiat.
    const Dim ctor = type_dim_in(tu.typedefs, TypeName{true, name, false, false, 0});
    if (ctor.known) return {ctor, name};
    // Dimension-preserving math intrinsics.
    static const std::set<std::string> kFirstArg = {"abs",   "fabs", "floor",
                                                    "ceil",  "round", "trunc"};
    if (kFirstArg.contains(name)) {
      return args.empty() ? Val{} : Val{args[0].dim, ""};
    }
    if (name == "max" || name == "min" || name == "clamp") {
      Dim d = unknown_dim();
      bool conflict = false;
      for (std::size_t a = 0; a < args.size(); ++a) {
        const Dim ad = args[a].dim;
        if (!ad.known || is_dimensionless(ad)) continue;
        if (!d.known) {
          d = ad;
        } else if (!(d == ad)) {
          conflict = true;
          emit("UNITS-003", lines[a],
               "std::" + name + " over mixed dimensions: " + dim_name(d) + " vs " +
                   dim_name(ad));
        }
      }
      return conflict || !d.known ? Val{} : Val{d, ""};
    }
    if (tu.structs.contains(name)) {
      return {unknown_dim(), name};  // aggregate construction
    }
    return check_call(name, "", args, lines, call_line);
  }

  // ---- checks

  void check_add_like(const Val& l, const Val& r, int line, const char* verb) {
    if (!l.dim.known || !r.dim.known) return;
    if (is_dimensionless(l.dim) || is_dimensionless(r.dim)) return;
    if (l.dim == r.dim) return;
    emit("UNITS-003", line,
         std::string(verb) + " " + dim_name(l.dim) + " and " + dim_name(r.dim));
  }

  Val combine_add(const Val& l, const Val& r) const {
    if (!l.dim.known || !r.dim.known) return {};
    if (l.dim == r.dim) return {l.dim, l.type_last == r.type_last ? l.type_last : ""};
    if (is_dimensionless(l.dim)) return {r.dim, ""};
    if (is_dimensionless(r.dim)) return {l.dim, ""};
    return {};
  }

  // ---- statements

  void analyze_body() {
    walk_statements(fn.body_b, fn.body_e);
  }

  void walk_statements(std::size_t b, std::size_t e) {
    std::size_t start = b;
    int paren = 0;
    for (std::size_t k = b; k < e; ++k) {
      if (t[k].kind != Token::Kind::Punct) continue;
      const std::string& p = t[k].text;
      if (p == "(" || p == "[") ++paren;
      if (p == ")" || p == "]") --paren;
      if (paren == 0 && (p == ";" || p == "{" || p == "}")) {
        if (start < k) handle_statement(start, k);
        start = k + 1;
      }
    }
    if (start < e) handle_statement(start, e);
  }

  void handle_statement(std::size_t b, std::size_t e) {
    while (b < e && is_ident(t, b) &&
           (t[b].text == "else" || t[b].text == "do" || t[b].text == "try")) {
      ++b;
    }
    if (b >= e) return;
    if (is_ident(t, b)) {
      const std::string& w = t[b].text;
      if (w == "return" || w == "co_return") {
        if (b + 1 < e) {
          const Val v = parse_expr_span(b + 1, e);
          const Dim want = func_ret_dim(fn);
          if (want.known && !is_dimensionless(want) && v.dim.known &&
              !is_dimensionless(v.dim) && !(want == v.dim)) {
            emit("UNITS-003", t[b].line,
                 "returning " + dim_name(v.dim) + " from " + fn.name +
                     "() which returns " + dim_name(want));
          }
        }
        return;
      }
      if (w == "if" || w == "while" || w == "switch" || w == "catch") {
        std::size_t p = b + 1;
        while (p < e && is_ident(t, p)) ++p;  // "if constexpr"
        if (is_punct(t, p, "(")) {
          const std::size_t close = match_forward(t, p, "(", ")", e);
          if (w != "catch") parse_expr_span(p + 1, close);
          if (close + 1 < e) handle_statement(close + 1, e);
        }
        return;
      }
      if (w == "for") {
        if (is_punct(t, b + 1, "(")) {
          const std::size_t close = match_forward(t, b + 1, "(", ")", e);
          handle_for_header(b + 2, close);
          if (close + 1 < e) handle_statement(close + 1, e);
        }
        return;
      }
      static const std::set<std::string> kSkip = {
          "break",  "continue", "case",     "default", "goto",   "using",
          "typedef", "throw",   "delete",   "public",  "private", "protected",
          "template", "namespace", "struct", "class",  "enum",   "friend",
          "static_assert", "union"};
      if (kSkip.contains(w)) return;
    }
    if (try_declaration(b, e)) return;
    try_assignment_or_expr(b, e);
  }

  void handle_for_header(std::size_t b, std::size_t e) {
    // Range-for: "TYPE name : expr" — no top-level ';' inside the parens.
    std::vector<std::size_t> semis;
    int depth = 0;
    for (std::size_t k = b; k < e; ++k) {
      if (t[k].kind != Token::Kind::Punct) continue;
      const std::string& p = t[k].text;
      if (p == "(" || p == "{" || p == "[") ++depth;
      if (p == ")" || p == "}" || p == "]") --depth;
      if (p == ";" && depth == 0) semis.push_back(k);
    }
    if (semis.empty()) {
      for (std::size_t k = b; k < e; ++k) {
        if (is_punct(t, k, ":") && !is_punct(t, k + 1, ":") &&
            !(k > b && is_punct(t, k - 1, ":"))) {
          const TypeName ty = parse_type(t, b, k);
          if (ty.ok && is_ident(t, ty.end)) {
            const std::string& nm = t[ty.end].text;
            env[nm] = {decl_dim_in(tu.typedefs, ty, nm), ty.last};
          }
          parse_expr_span(k + 1, e);
          return;
        }
      }
      parse_expr_span(b, e);
      return;
    }
    handle_statement(b, semis[0]);
    if (semis.size() > 1) {
      if (semis[0] + 1 < semis[1]) parse_expr_span(semis[0] + 1, semis[1]);
      if (semis[1] + 1 < e) try_assignment_or_expr(semis[1] + 1, e);
    }
  }

  bool try_declaration(std::size_t b, std::size_t e) {
    const TypeName ty = parse_type(t, b, e);
    if (!ty.ok || ty.end >= e || !is_ident(t, ty.end) ||
        non_type_keywords().contains(t[ty.end].text)) {
      return false;
    }
    std::size_t j = ty.end;
    const std::string name = t[j].text;
    ++j;
    if (!(j >= e || is_punct(t, j, "=") || is_punct(t, j, "{") ||
          is_punct(t, j, "(") || is_punct(t, j, ",") || is_punct(t, j, ";"))) {
      return false;
    }
    Dim declared = decl_dim_in(tu.typedefs, ty, name);
    std::string type_last = ty.last;
    if (j < e && is_punct(t, j, "=") && !is_punct(t, j + 1, "=")) {
      // Initializer up to the next top-level comma (multi-declarator lists
      // beyond the first declarator are rare enough to skip).
      std::size_t stop = e;
      int depth = 0;
      for (std::size_t k = j + 1; k < e; ++k) {
        if (t[k].kind != Token::Kind::Punct) continue;
        const std::string& p = t[k].text;
        if (p == "(" || p == "{" || p == "[") ++depth;
        if (p == ")" || p == "}" || p == "]") --depth;
        if (p == "," && depth == 0) {
          stop = k;
          break;
        }
      }
      const Val init = parse_expr_span(j + 1, stop);
      if (ty.last == "auto") {
        declared = init.dim;
        type_last = init.type_last;
      } else if (declared.known && !is_dimensionless(declared) && init.dim.known &&
                 !is_dimensionless(init.dim) && !(declared == init.dim)) {
        emit("UNITS-003", t[j].line,
             "initializing " + dim_name(declared) + " '" + name + "' from " +
                 dim_name(init.dim) + " expression");
      }
    } else if (j < e && (is_punct(t, j, "{") || is_punct(t, j, "("))) {
      // Direct/brace init: explicit conversion idiom, walk for nested
      // violations only.
      const std::string open = t[j].text;
      const std::string close_p = open == "{" ? "}" : ")";
      const std::size_t close = match_forward(t, j, open, close_p, e);
      for (auto [ab, ae] :
           Parser{t, const_cast<FileInfo&>(*tu.file)}.split_commas(j + 1, close)) {
        parse_expr_span(ab, ae);
      }
      if (ty.last == "auto") declared = unknown_dim();
    }
    env[name] = {declared, type_last};
    return true;
  }

  void try_assignment_or_expr(std::size_t b, std::size_t e) {
    int depth = 0;
    for (std::size_t k = b; k < e; ++k) {
      if (t[k].kind != Token::Kind::Punct) continue;
      const std::string& p = t[k].text;
      if (p == "(" || p == "{" || p == "[") ++depth;
      if (p == ")" || p == "}" || p == "]") --depth;
      if (depth != 0 || p != "=") continue;
      if (is_punct(t, k + 1, "=")) {
        ++k;
        continue;  // ==
      }
      if (k > b && t[k - 1].kind == Token::Kind::Punct) {
        const std::string& prev = t[k - 1].text;
        if (prev == "!" || prev == "<" || prev == ">" || prev == "=") {
          continue;  // comparison
        }
        if (prev == "+" || prev == "-") {
          // Compound add/sub assign: same-dimension contract as '+'.
          const Val l = parse_expr_span(b, k - 1);
          const Val r = parse_expr_span(k + 1, e);
          check_add_like(l, r, t[k].line, prev == "+" ? "adding" : "subtracting");
          return;
        }
        if (prev == "*" || prev == "/" || prev == "%" || prev == "&" ||
            prev == "|" || prev == "^") {
          parse_expr_span(b, k - 1);
          parse_expr_span(k + 1, e);
          return;
        }
      }
      const Val l = parse_expr_span(b, k);
      const Val r = parse_expr_span(k + 1, e);
      check_add_like(l, r, t[k].line, "assigning");
      return;
    }
    parse_expr_span(b, e);
  }
};

// ------------------------------------------------------------------ LOCK-001

struct LockSite {
  std::string file;
  int line = 0;
  std::string func;
};

struct LockAnalysis {
  /// (held, acquired) -> first site where that order was observed.
  std::map<std::pair<std::string, std::string>, LockSite> order;
  std::vector<Finding> findings;
};

/// Last identifier of the token span — "s.shard().mutex" names "mutex".
std::string last_ident(const std::vector<Token>& t, std::size_t b, std::size_t e) {
  std::string name;
  for (std::size_t k = b; k < e; ++k) {
    if (t[k].kind == Token::Kind::Ident) name = t[k].text;
  }
  return name;
}

void analyze_locks(const FileInfo& fi, const FuncDecl& fn, LockAnalysis& la) {
  const std::vector<Token>& t = fi.tokens;
  struct Held {
    std::string name;
    int depth;  ///< brace depth at acquisition; <0 for manual locks
    int line;
  };
  std::vector<Held> held;
  int depth = 0;

  auto acquire = [&](const std::string& name, int at_depth, int line) {
    if (name.empty()) return;
    for (const Held& h : held) {
      if (h.name == name) continue;  // same-name shards lock sequentially
      const auto key = std::make_pair(h.name, name);
      if (!la.order.contains(key)) {
        la.order[key] = {fi.path, line, fn.name};
      }
    }
    held.push_back({name, at_depth, line});
  };

  for (std::size_t k = fn.body_b; k < fn.body_e; ++k) {
    if (t[k].kind == Token::Kind::Punct) {
      if (t[k].text == "{") ++depth;
      if (t[k].text == "}") {
        --depth;
        std::erase_if(held, [&](const Held& h) { return h.depth > depth && h.depth >= 0; });
      }
      continue;
    }
    if (t[k].kind != Token::Kind::Ident) continue;
    const std::string& w = t[k].text;
    if (w == "lock_guard" || w == "scoped_lock" || w == "unique_lock") {
      std::size_t j = k + 1;
      if (is_punct(t, j, "<")) {
        j = match_forward(t, j, "<", ">", fn.body_e) + 1;
      }
      if (is_ident(t, j)) ++j;  // guard variable name
      if (is_punct(t, j, "(") || is_punct(t, j, "{")) {
        const std::string close = t[j].text == "(" ? ")" : "}";
        const std::size_t end = match_forward(t, j, t[j].text, close, fn.body_e);
        // scoped_lock may take several mutexes; each comma operand is one.
        int d = 0;
        std::size_t start = j + 1;
        for (std::size_t a = j + 1; a <= end && a < fn.body_e; ++a) {
          const bool is_close = a == end;
          if (t[a].kind == Token::Kind::Punct) {
            const std::string& p = t[a].text;
            if (p == "(" || p == "[") ++d;
            if (p == ")" || p == "]") --d;
          }
          if (is_close || (d == 0 && is_punct(t, a, ","))) {
            acquire(last_ident(t, start, a), depth, t[k].line);
            start = a + 1;
          }
        }
        k = end;
      }
      continue;
    }
    if (w == "lock" || w == "try_lock") {
      // Manual NAME.lock(): receiver is the identifier right before '.'.
      if (k >= 2 && is_punct(t, k - 1, ".") && t[k - 2].kind == Token::Kind::Ident &&
          is_punct(t, k + 1, "(")) {
        acquire(t[k - 2].text, -1, t[k].line);
        // A manual lock survives scope exits until unlock(); mark manual.
        if (!held.empty()) held.back().depth = -1;
      }
      continue;
    }
    if (w == "unlock") {
      if (k >= 2 && is_punct(t, k - 1, ".") && t[k - 2].kind == Token::Kind::Ident) {
        const std::string name = t[k - 2].text;
        for (std::size_t h = held.size(); h-- > 0;) {
          if (held[h].name == name && held[h].depth < 0) {
            held.erase(held.begin() + static_cast<long>(h));
            break;
          }
        }
      }
      continue;
    }
    if (w == "return" || w == "throw") {
      for (const Held& h : held) {
        if (h.depth >= 0) continue;  // RAII guards release themselves
        if (fi.sup.allows("LOCK-001", t[k].line)) continue;
        la.findings.push_back(
            {fi.path, t[k].line, "LOCK-001",
             "early " + w + " while '" + h.name + "' is locked (locked at line " +
                 std::to_string(h.line) + " without a guard)"});
      }
    }
  }
  for (const Held& h : held) {
    if (h.depth >= 0) continue;
    if (fi.sup.allows("LOCK-001", h.line)) continue;
    la.findings.push_back({fi.path, h.line, "LOCK-001",
                           "mutex '" + h.name + "' locked here is not released on all paths of " +
                               fn.name + "()"});
  }
}

void finish_lock_order(LockAnalysis& la, const std::vector<FileInfo>& files) {
  auto sup_allows = [&](const LockSite& s) {
    for (const FileInfo& f : files) {
      if (f.path == s.file) return f.sup.allows("LOCK-001", s.line);
    }
    return false;
  };
  for (const auto& [key, site] : la.order) {
    const auto& [a, b] = key;
    if (a >= b) continue;  // report each unordered pair once, from the a<b side
    const auto rev = la.order.find(std::make_pair(b, a));
    if (rev == la.order.end()) continue;
    if (!sup_allows(site)) {
      la.findings.push_back({site.file, site.line, "LOCK-001",
                             "lock-order inversion: '" + a + "' then '" + b + "' in " +
                                 site.func + "(), but '" + b + "' then '" + a + "' in " +
                                 rev->second.func + "() at " + rev->second.file + ":" +
                                 std::to_string(rev->second.line)});
    }
    if (!sup_allows(rev->second)) {
      la.findings.push_back({rev->second.file, rev->second.line, "LOCK-001",
                             "lock-order inversion: '" + b + "' then '" + a + "' in " +
                                 rev->second.func + "(), but '" + a + "' then '" + b +
                                 "' in " + site.func + "() at " + site.file + ":" +
                                 std::to_string(site.line)});
    }
  }
}

// ------------------------------------------------------------------ UNITS-004

const std::set<std::string>& magic_constants() {
  // Unit-conversion scale factors that belong behind util/units.hpp helpers.
  // Tolerances (1e-9) and generic powers of ten are deliberately absent.
  static const std::set<std::string> magic = {"3600",    "3600.0", "3600.",
                                              "86400",   "86400.0", "1440",
                                              "1440.0",  "1e9",     "1e+9",
                                              "1e6",     "1e+6"};
  return magic;
}

void scan_magic_constants(const FileInfo& fi, std::vector<Finding>& out) {
  if (normalized(fi.path).ends_with("util/units.hpp")) return;
  const std::vector<Token>& t = fi.tokens;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != Token::Kind::Number || !magic_constants().contains(t[k].text)) {
      continue;
    }
    const bool prev_op = k > 0 && t[k - 1].kind == Token::Kind::Punct &&
                         (t[k - 1].text == "*" || t[k - 1].text == "/");
    const bool next_op = k + 1 < t.size() && t[k + 1].kind == Token::Kind::Punct &&
                         (t[k + 1].text == "*" || t[k + 1].text == "/");
    if (!prev_op && !next_op) continue;
    if (fi.sup.allows("UNITS-004", t[k].line)) continue;
    out.push_back({fi.path, t[k].line, "UNITS-004",
                   "magic unit-conversion constant " + t[k].text +
                       "; use the util/units.hpp conversion operators or a named "
                       "constant there"});
  }
}

// ------------------------------------------------------------------ UNITS-002

void scan_raw_unit_decls(const FileInfo& fi, const Tu& tu, std::vector<Finding>& out) {
  auto flag = [&](const TypeName& ty, const std::string& name, int line,
                  const std::string& what) {
    if (!ty.ok || !ty.raw_double || ty.pointer || name.empty()) return;
    if (type_dim_in(tu.typedefs, ty).known) return;
    const auto reg = registry_dim(name);
    if (!reg) return;
    const std::string suggestion = suggested_type(*reg);
    if (suggestion.empty()) return;
    if (fi.sup.allows("UNITS-002", line)) return;
    out.push_back({fi.path, line, "UNITS-002",
                   "raw double " + what + " '" + name + "' carries dimension " +
                       dim_name(*reg) + "; use " + suggestion});
  };
  for (const FuncDecl& fn : fi.funcs) {
    for (const ParamDecl& p : fn.params) {
      flag(p.type, p.name, p.line, "parameter");
    }
  }
  for (const auto& [sname, sd] : fi.structs) {
    for (const FieldDecl& f : sd.fields) {
      flag(f.type, f.name, f.line, "field");
    }
  }
  for (const auto& [gname, g] : fi.globals) {
    flag(g.type, gname, g.line, "variable");
  }
}

}  // namespace

// ------------------------------------------------------------------ driver

std::vector<Finding> scan_semantic_sources(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<FileInfo> files;
  files.reserve(sources.size());
  for (const auto& [path, content] : sources) {
    files.push_back(parse_file(path, content));
  }
  const std::vector<std::vector<std::size_t>> visible = link_includes(files);

  std::vector<Finding> findings;
  LockAnalysis locks;
  for (std::size_t idx = 0; idx < files.size(); ++idx) {
    const FileInfo& fi = files[idx];
    const Tu tu = make_tu(files, visible[idx], idx);
    scan_raw_unit_decls(fi, tu, findings);
    scan_magic_constants(fi, findings);
    for (const FuncDecl& fn : fi.funcs) {
      if (!fn.has_body) continue;
      Analyzer an(tu, fn, findings);
      an.analyze_body();
      analyze_locks(fi, fn, locks);
    }
  }
  finish_lock_order(locks, files);
  findings.insert(findings.end(), locks.findings.begin(), locks.findings.end());

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule && a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

std::vector<Finding> scan_semantic(const std::vector<std::string>& paths) {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const std::string& path : collect_files(paths)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cynthia-lint: cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.emplace_back(path, buf.str());
  }
  return scan_semantic_sources(sources);
}

}  // namespace cynthia::lint
