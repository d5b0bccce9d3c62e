#include "analysis/call_graph.h"

#include <algorithm>
#include <cctype>

namespace fs = std::filesystem;

namespace apio::analysis {
namespace {

/// Keywords that look like `name(...)` but are never calls or
/// function definitions.
bool is_excluded_keyword(const std::string& s) {
  static const std::set<std::string> kSet = {
      "if",       "for",       "while",     "switch",       "catch",
      "return",   "sizeof",    "alignof",   "alignas",      "decltype",
      "noexcept", "throw",     "new",       "delete",       "static_assert",
      "typeid",   "co_await",  "co_return", "co_yield",     "requires",
      "assert",   "defined",   "do",        "else",         "case",
      "auto",     "const",     "constexpr", "static",       "inline",
      "virtual",  "explicit",  "operator",  "typename",     "this"};
  return kSet.count(s) > 0;
}

bool is_lock_decl_type(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock";
}

bool is_lock_tag(const std::string& s) {
  return s == "defer_lock" || s == "adopt_lock" || s == "try_to_lock";
}

bool looks_like_rank_name(const std::string& s) {
  return s.size() >= 2 && s[0] == 'k' &&
         std::isupper(static_cast<unsigned char>(s[1]));
}

/// Per-file extraction walker.
class Extractor {
 public:
  Extractor(const SourceFile& file, CodeModel& model)
      : file_(file), model_(model), toks_(tokenize(file)) {}

  void run();

 private:
  struct Scope {
    enum class Kind { kNamespace, kClass, kEnum, kFunction, kBlock };
    Kind kind;
    std::string name;
    long func = -1;  ///< index into model_.functions for kFunction
    bool is_lambda = false;
  };
  struct Hold {
    std::string rank;
    std::size_t depth;     ///< scope stack size at acquisition
    std::string lock_var;  ///< unique_lock variable (or mutex) name
  };

  const SourceFile& file_;
  CodeModel& model_;
  std::vector<Token> toks_;
  std::vector<Scope> scopes_;
  std::vector<Hold> holds_;
  /// Class-local `using X = RankedMutex<...>` aliases: (class, alias) -> rank.
  std::map<std::pair<std::string, std::string>, std::string> mutex_aliases_;
  /// Locals/params of the current function whose type names a class.
  std::map<std::string, std::string> local_types_;
  /// Most recent known-class type name seen in the current statement.
  std::string last_type_;

  std::size_t n() const { return toks_.size(); }
  bool is(std::size_t i, std::string_view s) const {
    return i < n() && toks_[i].text == s;
  }
  bool ident(std::size_t i) const { return i < n() && toks_[i].is_ident(); }

  long cur_func() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) return it->func;
    }
    return -1;
  }
  std::string cur_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass) return it->name;
    }
    return "";
  }
  bool at_decl_scope() const {
    if (scopes_.empty()) return true;
    const auto k = scopes_.back().kind;
    return k == Scope::Kind::kNamespace || k == Scope::Kind::kClass;
  }
  bool in_class_body() const {
    return !scopes_.empty() && scopes_.back().kind == Scope::Kind::kClass;
  }

  /// Ranks held at the current point.  Holds acquired outside the
  /// innermost enclosing lambda are excluded: the lambda body runs
  /// later, not under the lock it was built beneath.
  std::vector<std::string> held_ranks() const {
    std::size_t floor = 0;  // holds with depth <= floor are not held here
    for (std::size_t s = scopes_.size(); s-- > 0;) {
      if (scopes_[s].is_lambda) {
        floor = s + 1;
        break;
      }
    }
    std::vector<std::string> out;
    for (const auto& h : holds_) {
      if (h.depth <= floor) continue;
      if (std::find(out.begin(), out.end(), h.rank) == out.end()) {
        out.push_back(h.rank);
      }
    }
    return out;
  }

  void pop_scope() {
    if (scopes_.empty()) return;
    const std::size_t depth = scopes_.size();
    holds_.erase(std::remove_if(holds_.begin(), holds_.end(),
                                [&](const Hold& h) { return h.depth >= depth; }),
                 holds_.end());
    scopes_.pop_back();
  }

  /// Index just past the matching close for the open bracket at `i`
  /// (one of ( [ {).  Returns n() when unbalanced.
  std::size_t skip_group(std::size_t i) const;
  /// Index just past a balanced <...> starting at `i`; n() on failure
  /// (not a plausible template argument list).
  std::size_t skip_angles(std::size_t i) const;
  /// Index just past the terminating `;`, skipping balanced groups.
  std::size_t skip_statement(std::size_t i) const;

  std::size_t handle_namespace(std::size_t i);
  std::size_t handle_class(std::size_t i);
  std::size_t handle_enum(std::size_t i);
  std::size_t handle_using(std::size_t i);
  std::size_t handle_mutex_decl(std::size_t i);
  std::size_t handle_cv_decl(std::size_t i);
  std::size_t try_function_def(std::size_t i);
  std::size_t handle_lock_decl(std::size_t i);
  std::size_t try_lambda(std::size_t i);
  void handle_call(std::size_t i, std::size_t open_paren);
  void harvest_params(std::size_t open, std::size_t close);
  void track_type_decl(std::size_t i);

  void resolve_and_hold(const std::string& var, int line,
                        const std::string& lock_var);
  void record_mutex(const MutexVar& m);
};

std::size_t Extractor::skip_group(std::size_t i) const {
  const std::string& open = toks_[i].text;
  const std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t j = i; j < n(); ++j) {
    if (toks_[j].text == open) ++depth;
    else if (toks_[j].text == close && --depth == 0) return j + 1;
  }
  return n();
}

std::size_t Extractor::skip_angles(std::size_t i) const {
  if (!is(i, "<")) return n();
  int depth = 0;
  for (std::size_t j = i; j < n() && j < i + 256; ++j) {
    const std::string& t = toks_[j].text;
    if (t == "<") ++depth;
    else if (t == ">" && --depth == 0) return j + 1;
    else if (t == ";" || t == "{" || t == "}") return n();
  }
  return n();
}

std::size_t Extractor::skip_statement(std::size_t i) const {
  std::size_t j = i;
  while (j < n()) {
    const std::string& t = toks_[j].text;
    if (t == ";") return j + 1;
    if (t == "(" || t == "[" || t == "{") {
      j = skip_group(j);
      continue;
    }
    if (t == "}") return j;  // malformed; let the scope logic see it
    ++j;
  }
  return j;
}

std::size_t Extractor::handle_namespace(std::size_t i) {
  std::size_t j = i + 1;
  std::string name;
  while (ident(j) || is(j, "::")) {
    if (ident(j)) name += (name.empty() ? "" : "::") + toks_[j].text;
    ++j;
  }
  if (is(j, "{")) {
    scopes_.push_back({Scope::Kind::kNamespace, name, -1, false});
    return j + 1;
  }
  return skip_statement(j);  // namespace alias or malformed
}

std::size_t Extractor::handle_class(std::size_t i) {
  std::size_t j = i + 1;
  while (is(j, "[")) j = skip_group(j);  // attributes
  std::string name;
  if (ident(j) && !is(j, "final")) {
    name = toks_[j].text;
    ++j;
    if (is(j, "<")) {  // specialization Foo<T>
      const std::size_t after = skip_angles(j);
      if (after != n()) j = after;
    }
  }
  if (is(j, "final")) ++j;
  if (is(j, ":")) {  // base clause
    ++j;
    while (j < n() && !is(j, "{") && !is(j, ";")) {
      if (is(j, "<")) {
        const std::size_t after = skip_angles(j);
        j = after == n() ? j + 1 : after;
        continue;
      }
      if (ident(j) && !is(j, "public") && !is(j, "protected") &&
          !is(j, "private") && !is(j, "virtual") && !name.empty()) {
        // Every identifier in the base clause is a candidate base; only
        // names that turn out to be known classes matter downstream, so
        // over-recording (`storage` as well as `Backend`) is harmless.
        model_.bases[name].insert(toks_[j].text);
      }
      ++j;
    }
  }
  if (is(j, "{")) {
    if (!name.empty()) model_.classes.insert(name);
    scopes_.push_back({Scope::Kind::kClass, name, -1, false});
    return j + 1;
  }
  if (is(j, ";")) return j + 1;            // forward declaration
  if (ident(j)) return skip_statement(j);  // `struct stat st{};`
  return i + 1;  // elaborated type use, e.g. vector<struct iovec>
}

std::size_t Extractor::handle_enum(std::size_t i) {
  std::size_t j = i + 1;
  if (is(j, "class") || is(j, "struct")) ++j;
  if (ident(j)) ++j;
  if (is(j, ":")) {  // underlying type
    while (j < n() && !is(j, "{") && !is(j, ";")) ++j;
  }
  if (is(j, "{")) {
    scopes_.push_back({Scope::Kind::kEnum, "", -1, false});
    return j + 1;
  }
  return j;  // opaque declaration
}

std::size_t Extractor::handle_using(std::size_t i) {
  if (!(ident(i + 1) && is(i + 2, "="))) return skip_statement(i + 1);
  const std::string alias = toks_[i + 1].text;
  std::string rank;
  bool saw_ranked = false;
  std::vector<std::string> rhs;
  std::size_t j = i + 3;
  while (j < n() && !is(j, ";")) {
    if (is(j, "RankedMutex")) saw_ranked = true;
    if (ident(j)) {
      rhs.push_back(toks_[j].text);
      if (saw_ranked && looks_like_rank_name(toks_[j].text)) {
        rank = toks_[j].text;
      }
    }
    ++j;
  }
  if (saw_ranked && !rank.empty()) {
    mutex_aliases_[{cur_class(), alias}] = rank;
  } else if (!rhs.empty()) {
    model_.alias_raw[alias] = rhs;  // resolved against classes later
  }
  return j + 1;
}

std::size_t Extractor::handle_mutex_decl(std::size_t i) {
  // `RankedMutex<...kRank...> var ;`  (possibly `debug::` qualified,
  // possibly brace-initialised).
  std::size_t j = i + 1;
  if (!is(j, "<")) return i + 1;
  const std::size_t after = skip_angles(j);
  if (after == n()) return i + 1;
  std::string rank;
  for (std::size_t k = j; k < after; ++k) {
    if (ident(k) && looks_like_rank_name(toks_[k].text)) rank = toks_[k].text;
  }
  j = after;
  if (rank.empty() || !ident(j)) return j;
  const std::string var = toks_[j].text;
  ++j;
  if (is(j, "{")) j = skip_group(j);
  if (is(j, ";")) {
    record_mutex({cur_class(), var, rank});
    return j + 1;
  }
  return j;  // reference/parameter of RankedMutex type, not a member
}

void Extractor::record_mutex(const MutexVar& m) {
  // Extraction runs twice (see build_model); the second pass must not
  // duplicate phase-1 declarations.
  for (const auto& existing : model_.mutexes) {
    if (existing.cls == m.cls && existing.name == m.name &&
        existing.rank == m.rank) {
      return;
    }
  }
  model_.mutexes.push_back(m);
}

std::size_t Extractor::handle_cv_decl(std::size_t i) {
  if (ident(i + 1)) {
    model_.cv_names.insert(toks_[i + 1].text);
    return i + 2;
  }
  return i + 1;
}

void Extractor::harvest_params(std::size_t open, std::size_t close) {
  // Walk `( ... )` recording `Type name` pairs where Type names a class
  // (directly or through a pointer/reference/smart pointer/alias).
  std::string lt;
  for (std::size_t k = open + 1; k < close && k < n(); ++k) {
    const std::string& t = toks_[k].text;
    if (t == "(" || t == "[" || t == "{") {
      k = skip_group(k) - 1;
      continue;
    }
    if (t == ",") {
      lt.clear();
      continue;
    }
    if (!toks_[k].is_ident()) continue;
    const std::string cls = model_.as_class(t);
    if (!cls.empty()) {
      lt = cls;
      continue;
    }
    // Parameter name: an identifier followed by `,`, `)`, or `=`.
    if (!lt.empty() &&
        (is(k + 1, ",") || k + 1 == close || is(k + 1, "="))) {
      local_types_[t] = lt;
    }
  }
}

std::size_t Extractor::try_function_def(std::size_t i) {
  // toks_[i] is an identifier immediately followed by '('.
  const std::string simple = toks_[i].text;
  if (is_excluded_keyword(simple)) return i + 1;

  // The class is the immediate qualifier before the (possibly ~-prefixed)
  // name: `apio::storage::PosixBackend::write` -> PosixBackend.
  std::string name = simple;
  std::size_t head = i;  // index of the name (or '~')
  if (head > 0 && is(head - 1, "~")) {
    name = "~" + name;
    --head;
  }
  std::string cls;
  if (head >= 2 && is(head - 1, "::") && ident(head - 2)) {
    cls = toks_[head - 2].text;
  }
  if (cls.empty()) cls = cur_class();

  const std::size_t params_close = skip_group(i + 1);
  if (params_close >= n()) return i + 1;
  std::size_t j = params_close;

  // Trailing qualifiers / exception spec / trailing return type.
  for (;;) {
    if (is(j, "const") || is(j, "override") || is(j, "final") ||
        is(j, "mutable") || is(j, "&") || is(j, "*") || is(j, "volatile")) {
      ++j;
      continue;
    }
    if (is(j, "noexcept")) {
      ++j;
      if (is(j, "(")) j = skip_group(j);
      continue;
    }
    if (is(j, "->")) {
      ++j;
      while (ident(j) || is(j, "::") || is(j, "*") || is(j, "&") ||
             is(j, "const")) {
        ++j;
      }
      if (is(j, "<")) {
        const std::size_t after = skip_angles(j);
        j = after == n() ? j + 1 : after;
      }
      continue;
    }
    break;
  }

  if (is(j, ":")) {
    // Constructor initializer list: member(args) or member{args},
    // comma-separated, then the body.
    ++j;
    for (;;) {
      while (ident(j) || is(j, "::")) ++j;
      if (is(j, "<")) {
        const std::size_t after = skip_angles(j);
        if (after == n()) return i + 1;
        j = after;
      }
      if (is(j, "(")) j = skip_group(j);
      else if (is(j, "{")) j = skip_group(j);
      else return i + 1;
      if (is(j, ",")) {
        ++j;
        continue;
      }
      break;
    }
  }
  if (is(j, "try")) ++j;  // function-try-block

  if (!is(j, "{")) return i + 1;  // declaration, deleted/defaulted, etc.

  Function fn;
  fn.cls = cls;
  fn.name = name;
  fn.qualified = cls.empty() ? name : cls + "::" + name;
  fn.file = file_.rel;
  fn.line = toks_[i].line;
  model_.functions.push_back(std::move(fn));
  const long idx = static_cast<long>(model_.functions.size()) - 1;
  model_.by_name.emplace(name, static_cast<std::size_t>(idx));
  scopes_.push_back({Scope::Kind::kFunction, name, idx, false});
  local_types_.clear();
  harvest_params(i + 1, params_close - 1);
  return j + 1;
}

void Extractor::resolve_and_hold(const std::string& var, int line,
                                 const std::string& lock_var) {
  const long fi = cur_func();
  if (fi < 0) return;
  Function& fn = model_.functions[static_cast<std::size_t>(fi)];
  // Prefer a member of the function's class; fall back to a unique
  // global match (file-local structs, namespace-scope mutexes).
  std::set<std::string> ranks;
  for (const auto& m : model_.mutexes) {
    if (m.name == var && m.cls == fn.cls) ranks.insert(m.rank);
  }
  if (ranks.empty()) {
    for (const auto& m : model_.mutexes) {
      if (m.name == var) ranks.insert(m.rank);
    }
  }
  if (ranks.size() != 1) return;  // unknown or ambiguous: stay quiet
  AcquireSite a;
  a.rank = *ranks.begin();
  a.line = line;
  a.held_before = held_ranks();
  fn.acquires.push_back(a);
  holds_.push_back({*ranks.begin(), scopes_.size(), lock_var});
}

std::size_t Extractor::handle_lock_decl(std::size_t i) {
  // lock_guard / unique_lock / scoped_lock [<...>] var ( mutex[, ...] ) ;
  std::size_t j = i + 1;
  if (is(j, "<")) {
    const std::size_t after = skip_angles(j);
    if (after == n()) return i + 1;
    j = after;
  }
  if (!ident(j)) return i + 1;
  const std::string lock_var = toks_[j].text;
  ++j;
  if (!is(j, "(")) return i + 1;
  const std::size_t close = skip_group(j) - 1;
  const int line = toks_[i].line;
  // Split top-level commas; the last identifier of each argument names
  // the mutex (handles `cache->mutex_`, `*mu`, plain members).
  std::string last_ident;
  auto flush = [&] {
    if (!last_ident.empty() && !is_lock_tag(last_ident)) {
      resolve_and_hold(last_ident, line, lock_var);
    }
    last_ident.clear();
  };
  std::size_t k = j + 1;
  while (k < close && k < n()) {
    const std::string& t = toks_[k].text;
    if (t == "(" || t == "[" || t == "{") {
      k = skip_group(k);
      continue;
    }
    if (t == ",") {
      flush();
      ++k;
      continue;
    }
    if (toks_[k].is_ident()) last_ident = t;
    ++k;
  }
  flush();
  return close + 1;
}

std::size_t Extractor::try_lambda(std::size_t i) {
  // toks_[i] == "[" in expression position (prev is not a postfix
  // expression, so this is a capture list, not a subscript).
  const std::size_t after_capture = skip_group(i);
  if (after_capture >= n()) return i + 1;
  std::size_t j = after_capture;
  std::size_t params_open = 0, params_close = 0;
  if (is(j, "(")) {
    params_open = j;
    j = skip_group(j);
    params_close = j - 1;
  }
  for (;;) {
    if (is(j, "mutable") || is(j, "constexpr")) {
      ++j;
      continue;
    }
    if (is(j, "noexcept")) {
      ++j;
      if (is(j, "(")) j = skip_group(j);
      continue;
    }
    if (is(j, "->")) {
      ++j;
      while (ident(j) || is(j, "::") || is(j, "*") || is(j, "&") ||
             is(j, "const")) {
        ++j;
      }
      if (is(j, "<")) {
        const std::size_t after = skip_angles(j);
        j = after == n() ? j + 1 : after;
      }
      continue;
    }
    break;
  }
  if (!is(j, "{")) return i + 1;  // not a lambda after all
  scopes_.push_back({Scope::Kind::kBlock, "", -1, true});
  if (params_open != 0) harvest_params(params_open, params_close);
  return j + 1;
}

void Extractor::track_type_decl(std::size_t i) {
  // Statement-local tracker: remember the last known-class type name,
  // and record `Type name` declarations (members at class scope,
  // locals inside functions).  `auto x = std::make_shared<T>(...)` is
  // special-cased.
  const std::string& t = toks_[i].text;
  const std::string cls = model_.as_class(t);
  if (!cls.empty()) {
    last_type_ = cls;
    return;
  }
  const bool next_decl = is(i + 1, ";") || is(i + 1, "=") || is(i + 1, "{") ||
                         is(i + 1, "(");
  if (!next_decl || i == 0) return;
  const Token& prev = toks_[i - 1];
  const bool prev_auto =
      prev.is("auto") ||
      (i >= 2 && (prev.is("&") || prev.is("*")) && is(i - 2, "auto"));
  if (prev_auto && is(i + 1, "=")) {
    // auto v = std::make_shared<T>(...) / make_unique<T>(...)
    std::string made;
    for (std::size_t k = i + 2; k < n() && k < i + 40 && !is(k, ";"); ++k) {
      if ((is(k, "make_shared") || is(k, "make_unique")) && is(k + 1, "<")) {
        const std::size_t after = skip_angles(k + 1);
        for (std::size_t m = k + 2; m + 1 < after && m < n(); ++m) {
          if (ident(m)) {
            const std::string c = model_.as_class(toks_[m].text);
            if (!c.empty()) made = c;
          }
        }
        break;
      }
    }
    if (!made.empty() && cur_func() >= 0) local_types_[t] = made;
    return;
  }
  const bool prev_decl =
      (prev.is_ident() && !is_excluded_keyword(prev.text)) || prev.is(">") ||
      prev.is("*") || prev.is("&");
  if (!prev_decl || last_type_.empty()) return;
  if (cur_func() >= 0) {
    local_types_[t] = last_type_;
  } else if (in_class_body()) {
    model_.member_types[{cur_class(), t}] = last_type_;
  }
}

void Extractor::handle_call(std::size_t i, std::size_t open_paren) {
  const long fi = cur_func();
  if (fi < 0) return;
  const std::string& name = toks_[i].text;
  if (is_excluded_keyword(name)) return;

  // Declarations (`Type name(...)`) have an identifier or number token
  // directly before the name; calls have punctuation or `return` etc.
  std::string receiver, qualifier;
  if (i > 0) {
    const Token& prev = toks_[i - 1];
    if (prev.is(".") || prev.is("->")) {
      if (i >= 2 && ident(i - 2)) receiver = toks_[i - 2].text;
    } else if (prev.is("::")) {
      if (i >= 2 && ident(i - 2)) qualifier = toks_[i - 2].text;
    } else if ((prev.is_ident() && !is_excluded_keyword(prev.text)) ||
               prev.kind == Token::Kind::kNumber) {
      return;  // declaration, not a call
    }
  }

  Function& fn = model_.functions[static_cast<std::size_t>(fi)];
  if (name == "APIO_ASSERT_ON_STREAM") {
    fn.asserts_stream = true;
    fn.assert_stream_line = toks_[i].line;
    return;
  }
  if (name == "APIO_ASSERT_ON_RANK") {
    fn.asserts_rank = true;
    fn.assert_rank_line = toks_[i].line;
    return;
  }

  // unlock() on a tracked lock variable or mutex releases the hold.
  if (name == "unlock" && !receiver.empty()) {
    for (auto it = holds_.rbegin(); it != holds_.rend(); ++it) {
      if (it->lock_var == receiver) {
        holds_.erase(std::next(it).base());
        return;
      }
    }
    return;
  }
  // Direct mutex_.lock(): an acquisition held to scope end.
  if (name == "lock" && !receiver.empty()) {
    resolve_and_hold(receiver, toks_[i].line, receiver);
    return;
  }

  CallSite call;
  call.name = name;
  call.receiver = receiver;
  call.qualifier = qualifier;
  call.line = toks_[i].line;
  call.held = held_ranks();
  if (!receiver.empty()) {
    auto it = local_types_.find(receiver);
    if (it != local_types_.end()) call.receiver_type = it->second;
  }

  // Statement-level discard: the postfix chain starts the statement and
  // the call's closing paren is immediately followed by ';'.
  std::size_t chain_start = i;
  while (chain_start >= 2 &&
         (is(chain_start - 1, ".") || is(chain_start - 1, "->") ||
          is(chain_start - 1, "::")) &&
         ident(chain_start - 2)) {
    chain_start -= 2;
  }
  const bool stmt_start = chain_start == 0 || is(chain_start - 1, ";") ||
                          is(chain_start - 1, "{") || is(chain_start - 1, "}");
  const std::size_t after = skip_group(open_paren);
  call.stmt_discard = stmt_start && is(after, ";");

  fn.calls.push_back(std::move(call));
}

void Extractor::run() {
  std::size_t i = 0;
  while (i < n()) {
    const Token& t = toks_[i];
    if (t.is(";") || t.is("{") || t.is("}")) last_type_.clear();
    if (t.is("namespace")) {
      i = handle_namespace(i);
      continue;
    }
    if (t.is("class") || t.is("struct") || t.is("union")) {
      i = handle_class(i);
      continue;
    }
    if (t.is("enum")) {
      i = handle_enum(i);
      continue;
    }
    if (t.is("template")) {
      if (is(i + 1, "<")) {
        const std::size_t after = skip_angles(i + 1);
        i = after == n() ? i + 2 : after;
      } else {
        ++i;
      }
      continue;
    }
    if (t.is("using") && at_decl_scope()) {
      i = handle_using(i);
      continue;
    }
    if (t.is("RankedMutex") && is(i + 1, "<")) {
      i = handle_mutex_decl(i);
      continue;
    }
    if ((t.is("condition_variable_any") || t.is("condition_variable")) &&
        ident(i + 1)) {
      i = handle_cv_decl(i);
      continue;
    }
    // Aliased mutex members: `Mutex mutex_;` where Mutex is a recorded
    // class-local RankedMutex alias.
    if (t.is_ident() && ident(i + 1) && is(i + 2, ";")) {
      auto it = mutex_aliases_.find({cur_class(), t.text});
      if (it != mutex_aliases_.end()) {
        record_mutex({cur_class(), toks_[i + 1].text, it->second});
        i += 3;
        continue;
      }
    }
    if (t.is("[") && cur_func() >= 0) {
      const bool subscript =
          i > 0 && (toks_[i - 1].is_ident() || is(i - 1, ")") ||
                    is(i - 1, "]") ||
                    toks_[i - 1].kind == Token::Kind::kNumber);
      if (!subscript) {
        i = try_lambda(i);
        continue;
      }
    }
    if (t.is("{")) {
      scopes_.push_back({Scope::Kind::kBlock, "", -1, false});
      ++i;
      continue;
    }
    if (t.is("}")) {
      pop_scope();
      ++i;
      continue;
    }
    if (t.is_ident() && cur_func() >= 0 && is_lock_decl_type(t.text)) {
      i = handle_lock_decl(i);
      continue;
    }
    if (t.is_ident()) {
      track_type_decl(i);
      // `name(` — a definition at declaration scope, a call in a body.
      std::size_t open = n();
      if (is(i + 1, "(")) {
        open = i + 1;
      } else if (is(i + 1, "<") && cur_func() >= 0) {
        const std::size_t after = skip_angles(i + 1);
        if (after != n() && is(after, "(")) open = after;  // f<T>(...)
      }
      if (open != n()) {
        if (cur_func() >= 0) {
          handle_call(i, open);
          ++i;
          continue;
        }
        if (at_decl_scope()) {
          i = try_function_def(i);
          continue;
        }
      }
    }
    ++i;
  }
}

}  // namespace

bool LockRankTable::load(const SourceFile& header) {
  bool in_enum = false;
  for (const auto& line : header.code) {
    if (!in_enum) {
      if (contains(line, "enum") && contains(line, "LockRank")) in_enum = true;
      continue;
    }
    if (contains(line, "}")) break;
    // `kName = N,`
    std::size_t k = line.find('k');
    while (k != std::string::npos) {
      std::size_t e = k;
      while (e < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[e])) ||
              line[e] == '_')) {
        ++e;
      }
      const std::string name = line.substr(k, e - k);
      if (looks_like_rank_name(name)) {
        const std::size_t eq = line.find('=', e);
        if (eq != std::string::npos) {
          int v = 0;
          bool any = false;
          for (std::size_t d = eq + 1; d < line.size(); ++d) {
            const char c = line[d];
            if (std::isdigit(static_cast<unsigned char>(c))) {
              v = v * 10 + (c - '0');
              any = true;
            } else if (any || c != ' ') {
              break;
            }
          }
          if (any) value[name] = v;
        }
        break;  // one enumerator per line in this style
      }
      k = line.find('k', k + 1);
    }
  }
  return !value.empty();
}

std::string CodeModel::as_class(const std::string& type_name) const {
  if (classes.count(type_name) > 0) return type_name;
  auto it = type_aliases.find(type_name);
  return it == type_aliases.end() ? "" : it->second;
}

std::string CodeModel::member_type_of(const std::string& cls,
                                      const std::string& var) const {
  auto it = member_types.find({cls, var});
  if (it != member_types.end()) return it->second;
  // Globally unique member name: one type whichever class declares it.
  std::string found;
  for (const auto& [key, type] : member_types) {
    if (key.second != var) continue;
    if (!found.empty() && found != type) return "";
    found = type;
  }
  return found;
}

bool CodeModel::is_or_derived(const std::string& cls,
                              const std::string& base) const {
  if (cls == base) return true;
  std::set<std::string> seen;
  std::vector<std::string> work{cls};
  while (!work.empty()) {
    const std::string cur = work.back();
    work.pop_back();
    if (!seen.insert(cur).second) continue;
    auto it = bases.find(cur);
    if (it == bases.end()) continue;
    for (const auto& b : it->second) {
      if (b == base) return true;
      work.push_back(b);
    }
  }
  return false;
}

std::vector<std::size_t> CodeModel::resolve(const CallSite& call,
                                            const std::string& caller_cls) const {
  // Calls through condition-variable receivers are std waits, never
  // calls into extracted functions (Eventual::wait et al.).
  if (!call.receiver.empty() && cv_names.count(call.receiver) > 0) return {};

  auto range = by_name.equal_range(call.name);
  std::vector<std::size_t> all, same, qual;
  for (auto it = range.first; it != range.second; ++it) {
    const Function& f = functions[it->second];
    all.push_back(it->second);
    if (!caller_cls.empty() && f.cls == caller_cls) same.push_back(it->second);
    if (!call.qualifier.empty() && f.cls == call.qualifier) {
      qual.push_back(it->second);
    }
  }
  // `Cls::f()` resolves within Cls when such a definition exists
  // (namespace qualifiers fall through to the name-wide set).
  if (!qual.empty()) return qual;

  if (!call.receiver.empty() && call.receiver != "this") {
    std::string type = call.receiver_type;
    if (type.empty()) type = member_type_of(caller_cls, call.receiver);
    if (type.empty()) return {};  // std containers, spans, unknowns
    std::vector<std::size_t> typed;
    for (const std::size_t idx : all) {
      if (is_or_derived(functions[idx].cls, type)) typed.push_back(idx);
    }
    return typed;
  }

  // A receiver-less (or this->) call inside a member function prefers
  // the same class: `run(...)` in ResilientBackend::write is its
  // private run, not every run() in the repo.
  if (!same.empty()) return same;
  return all;
}

void extract_file(const SourceFile& file, CodeModel& model) {
  Extractor(file, model).run();
}

CodeModel build_model(const fs::path& root, const std::vector<std::string>& dirs) {
  CodeModel model;
  for (const auto& path : collect_sources(root, dirs)) {
    SourceFile sf;
    if (!load_source(root, path, sf)) continue;
    model.file_index[sf.rel] = model.files.size();
    model.files.push_back(std::move(sf));
  }

  // Phase 1: harvest declarations (classes, bases, aliases, mutexes,
  // condition variables, member types) so phase 2 sees the complete
  // environment regardless of file order.
  for (const auto& sf : model.files) extract_file(sf, model);

  // Resolve namespace-scope `using` aliases against the now-complete
  // class set: the last class-named identifier on the right-hand side
  // wins (`using FilePtr = std::shared_ptr<File>` -> File).
  for (const auto& [alias, rhs] : model.alias_raw) {
    for (auto it = rhs.rbegin(); it != rhs.rend(); ++it) {
      if (model.classes.count(*it) > 0) {
        model.type_aliases[alias] = *it;
        break;
      }
    }
  }

  // Phase 2: rebuild the function bodies with full declarations.
  // Declaration stores (mutexes, classes, member types, aliases) are
  // kept from phase 1 — bodies often precede declarations in file
  // order (foo.cpp sorts before foo.h) — and re-harvesting into them
  // is idempotent.
  model.functions.clear();
  model.by_name.clear();
  for (const auto& sf : model.files) extract_file(sf, model);

  const fs::path rank_header = root / "src" / "common" / "debug" / "lock_rank.h";
  SourceFile rank_file;
  if (load_source(root, rank_header, rank_file)) {
    model.ranks.load(rank_file);
  }
  return model;
}

}  // namespace apio::analysis
