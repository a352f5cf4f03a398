#include "query/pattern_parser.h"

#include <cctype>
#include <unordered_map>

namespace ppsm {

namespace {

enum class TokenKind {
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kColon,
  kComma,
  kEquals,
  kEdge,  // "--"
  kName,  // Bare word or quoted string.
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;
  int column;
};

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kEquals:
      return "'='";
    case TokenKind::kEdge:
      return "'--'";
    case TokenKind::kName:
      return "name";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "?";
}

bool IsBareChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '/' || c == '-';
}

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      if (position_ >= text_.size()) break;
      const int line = line_;
      const int column = column_;
      const char c = text_[position_];
      switch (c) {
        case '(':
          tokens.push_back({TokenKind::kLParen, "(", line, column});
          Advance();
          break;
        case ')':
          tokens.push_back({TokenKind::kRParen, ")", line, column});
          Advance();
          break;
        case '{':
          tokens.push_back({TokenKind::kLBrace, "{", line, column});
          Advance();
          break;
        case '}':
          tokens.push_back({TokenKind::kRBrace, "}", line, column});
          Advance();
          break;
        case ':':
          tokens.push_back({TokenKind::kColon, ":", line, column});
          Advance();
          break;
        case ',':
          tokens.push_back({TokenKind::kComma, ",", line, column});
          Advance();
          break;
        case '=':
          tokens.push_back({TokenKind::kEquals, "=", line, column});
          Advance();
          break;
        case '"': {
          PPSM_ASSIGN_OR_RETURN(const std::string value, LexQuoted());
          tokens.push_back({TokenKind::kName, value, line, column});
          break;
        }
        default: {
          if (c == '-' && position_ + 1 < text_.size() &&
              text_[position_ + 1] == '-') {
            // "--" only counts as an edge when not glued into a bare word
            // (bare words may contain '-', so edges need surrounding
            // whitespace, which SkipWhitespace guarantees here).
            tokens.push_back({TokenKind::kEdge, "--", line, column});
            Advance();
            Advance();
            break;
          }
          if (IsBareChar(c)) {
            std::string word;
            while (position_ < text_.size() && IsBareChar(text_[position_])) {
              // A bare word may contain single dashes ("uk-2002") but "--"
              // always terminates it so "a--b" lexes as an edge.
              if (text_[position_] == '-' && position_ + 1 < text_.size() &&
                  text_[position_ + 1] == '-') {
                break;
              }
              word += text_[position_];
              Advance();
            }
            tokens.push_back({TokenKind::kName, word, line, column});
            break;
          }
          return Status::InvalidArgument(
              "unexpected character '" + std::string(1, c) + "' at " +
              Position(line, column));
        }
      }
    }
    tokens.push_back({TokenKind::kEnd, "", line_, column_});
    return tokens;
  }

  static std::string Position(int line, int column) {
    return "line " + std::to_string(line) + ", column " +
           std::to_string(column);
  }

 private:
  void Advance() {
    if (text_[position_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++position_;
  }

  void SkipWhitespaceAndComments() {
    while (position_ < text_.size()) {
      const char c = text_[position_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '#') {
        while (position_ < text_.size() && text_[position_] != '\n') {
          Advance();
        }
      } else {
        break;
      }
    }
  }

  Result<std::string> LexQuoted() {
    const int line = line_;
    const int column = column_;
    Advance();  // Opening quote.
    std::string value;
    while (position_ < text_.size() && text_[position_] != '"') {
      if (text_[position_] == '\\' && position_ + 1 < text_.size()) {
        Advance();
      }
      value += text_[position_];
      Advance();
    }
    if (position_ >= text_.size()) {
      return Status::InvalidArgument("unterminated string starting at " +
                                     Position(line, column));
    }
    Advance();  // Closing quote.
    return value;
  }

  const std::string& text_;
  size_t position_ = 0;
  int line_ = 1;
  int column_ = 1;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Schema& schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  Result<ParsedPattern> Parse() {
    while (Peek().kind != TokenKind::kEnd) {
      if (Peek().kind == TokenKind::kLParen) {
        PPSM_RETURN_IF_ERROR(ParseNode());
      } else if (Peek().kind == TokenKind::kName) {
        PPSM_RETURN_IF_ERROR(ParseEdge());
      } else {
        return Unexpected("a node '(' or an edge statement");
      }
    }
    if (variables_.empty()) {
      return Status::InvalidArgument("pattern declares no vertices");
    }
    ParsedPattern result;
    PPSM_ASSIGN_OR_RETURN(result.query, builder_.Build());
    result.variables = std::move(variables_);
    return result;
  }

 private:
  const Token& Peek() const { return tokens_[cursor_]; }
  const Token& Next() { return tokens_[cursor_++]; }

  Status Unexpected(const std::string& wanted) const {
    const Token& t = Peek();
    return Status::InvalidArgument(
        "expected " + wanted + " but found " + TokenKindName(t.kind) +
        (t.text.empty() ? "" : " '" + t.text + "'") + " at " +
        Lexer::Position(t.line, t.column));
  }

  Result<Token> Expect(TokenKind kind, const std::string& wanted) {
    if (Peek().kind != kind) return Unexpected(wanted);
    return Next();
  }

  Status ParseNode() {
    PPSM_RETURN_IF_ERROR(GetStatus(Expect(TokenKind::kLParen, "'('")));
    PPSM_ASSIGN_OR_RETURN(const Token var,
                          Expect(TokenKind::kName, "a variable name"));
    if (vertex_of_.contains(var.text)) {
      return Status::InvalidArgument("variable '" + var.text +
                                     "' declared twice at " +
                                     Lexer::Position(var.line, var.column));
    }
    PPSM_RETURN_IF_ERROR(GetStatus(Expect(TokenKind::kColon, "':'")));
    PPSM_ASSIGN_OR_RETURN(const Token type_name,
                          Expect(TokenKind::kName, "a vertex type name"));
    const VertexTypeId type = schema_.FindType(type_name.text);
    if (type == kInvalidType) {
      return Status::NotFound("unknown vertex type '" + type_name.text +
                              "' at " +
                              Lexer::Position(type_name.line,
                                              type_name.column));
    }

    std::vector<LabelId> labels;
    if (Peek().kind == TokenKind::kLBrace) {
      Next();
      while (true) {
        PPSM_ASSIGN_OR_RETURN(const Token attr_name,
                              Expect(TokenKind::kName, "an attribute name"));
        PPSM_RETURN_IF_ERROR(GetStatus(Expect(TokenKind::kEquals, "'='")));
        PPSM_ASSIGN_OR_RETURN(const Token value_name,
                              Expect(TokenKind::kName, "an attribute value"));
        const AttributeId attr = schema_.FindAttribute(type, attr_name.text);
        if (attr == kInvalidAttribute) {
          return Status::NotFound(
              "type '" + type_name.text + "' has no attribute '" +
              attr_name.text + "' at " +
              Lexer::Position(attr_name.line, attr_name.column));
        }
        const LabelId label = schema_.FindLabel(attr, value_name.text);
        if (label == kInvalidLabel) {
          return Status::NotFound(
              "attribute '" + attr_name.text + "' has no value '" +
              value_name.text + "' at " +
              Lexer::Position(value_name.line, value_name.column));
        }
        labels.push_back(label);
        if (Peek().kind == TokenKind::kComma) {
          Next();
          continue;
        }
        break;
      }
      PPSM_RETURN_IF_ERROR(GetStatus(Expect(TokenKind::kRBrace, "'}'")));
    }
    PPSM_RETURN_IF_ERROR(GetStatus(Expect(TokenKind::kRParen, "')'")));

    const VertexId id = builder_.AddVertex(type, std::move(labels));
    vertex_of_.emplace(var.text, id);
    variables_.push_back(var.text);
    return Status::OK();
  }

  Status ParseEdge() {
    PPSM_ASSIGN_OR_RETURN(const Token a,
                          Expect(TokenKind::kName, "a variable name"));
    PPSM_RETURN_IF_ERROR(GetStatus(Expect(TokenKind::kEdge, "'--'")));
    PPSM_ASSIGN_OR_RETURN(const Token b,
                          Expect(TokenKind::kName, "a variable name"));
    for (const Token* t : {&a, &b}) {
      if (!vertex_of_.contains(t->text)) {
        return Status::NotFound("undeclared variable '" + t->text +
                                "' at " + Lexer::Position(t->line, t->column));
      }
    }
    const Status added = builder_.AddEdge(vertex_of_[a.text],
                                          vertex_of_[b.text]);
    if (!added.ok()) {
      return Status(added.code(),
                    added.message() + " (edge " + a.text + " -- " + b.text +
                        " at " + Lexer::Position(a.line, a.column) + ")");
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t cursor_ = 0;
  const Schema& schema_;
  GraphBuilder builder_;
  std::unordered_map<std::string, VertexId> vertex_of_;
  std::vector<std::string> variables_;
};

/// Quotes a name if it is not a plain bare word.
std::string MaybeQuote(const std::string& name) {
  bool bare = !name.empty() && name.find("--") == std::string::npos;
  for (const char c : name) {
    if (!IsBareChar(c)) bare = false;
  }
  if (bare) return name;
  std::string quoted = "\"";
  for (const char c : name) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

Result<ParsedPattern> ParsePattern(const std::string& text,
                                   const Schema& schema) {
  Lexer lexer(text);
  PPSM_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), schema);
  return parser.Parse();
}

std::string FormatPattern(const AttributedGraph& query, const Schema& schema,
                          const std::vector<std::string>& variables) {
  auto var = [&variables](VertexId v) {
    if (v < variables.size()) return variables[v];
    std::string name = "v";
    name += std::to_string(v);
    return name;
  };
  std::string out;
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    out += '(';
    out += var(v);
    out += ':';
    out += MaybeQuote(schema.TypeName(query.PrimaryType(v)));
    const auto labels = query.Labels(v);
    if (!labels.empty()) {
      out += " {";
      for (size_t i = 0; i < labels.size(); ++i) {
        if (i > 0) out += ", ";
        out += MaybeQuote(
                   schema.AttributeName(schema.AttributeOfLabel(labels[i]))) +
               "=" + MaybeQuote(schema.LabelName(labels[i]));
      }
      out += "}";
    }
    out += ")\n";
  }
  query.ForEachEdge([&](VertexId a, VertexId b) {
    out += var(a) + " -- " + var(b) + "\n";
  });
  return out;
}

}  // namespace ppsm
