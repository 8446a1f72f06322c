//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! offline serde shim. Supports exactly the type shapes this workspace
//! declares: non-generic structs with named fields and enums with unit
//! variants. The one `#[serde(...)]` attribute understood is
//! `#[serde(alias = "Name", ...)]` on a unit variant: deserializing also
//! accepts each alias, serializing writes the variant's own name. Anything
//! else is a compile error pointing here.
//!
//! No `syn`/`quote` (registry is offline); the derive input is parsed
//! directly from the token stream and code is generated as a string.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the deriving type.
enum Shape {
    /// Struct with named fields.
    Struct { name: String, fields: Vec<String> },
    /// Enum with unit variants, each with the aliases it also reads from.
    Enum {
        name: String,
        variants: Vec<(String, Vec<String>)>,
    },
}

fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let mut tokens = input.into_iter().peekable();
    // Skip outer attributes and visibility to reach `struct` / `enum`.
    let kind = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // Attribute: consume the bracket group that follows.
                match tokens.next() {
                    Some(TokenTree::Group(_)) => {}
                    _ => return Err("malformed attribute".into()),
                }
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                // `pub`, `pub(crate)` etc: `pub` is an ident; a following
                // paren group is consumed on its own iteration.
            }
            Some(TokenTree::Group(_)) => {} // visibility restriction `(crate)`
            Some(other) => return Err(format!("unexpected token `{other}`")),
            None => return Err("no struct or enum found".into()),
        }
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("missing type name".into()),
    };
    let body = loop {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                return Err(format!(
                    "serde shim derive does not support generic type `{name}`"
                ))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                return Err(format!(
                    "serde shim derive does not support tuple/unit struct `{name}`"
                ))
            }
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "serde shim derive does not support tuple struct `{name}`"
                ))
            }
            Some(_) => {}
            None => return Err(format!("missing body for `{name}`")),
        }
    };

    if kind == "struct" {
        Ok(Shape::Struct {
            name,
            fields: parse_named_fields(body.stream())?,
        })
    } else {
        Ok(Shape::Enum {
            name,
            variants: parse_unit_variants(body.stream())?,
        })
    }
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        // Skip attributes (doc comments) and `pub` before the field name.
        let field = loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => match tokens.next() {
                    Some(TokenTree::Group(g)) if serde_attribute(&g).is_some() => {
                        return Err("serde shim derive does not support field attributes".into())
                    }
                    Some(TokenTree::Group(_)) => {}
                    _ => return Err("malformed field attribute".into()),
                },
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    // `pub(crate)` etc: skip a following paren group.
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => return Err(format!("unexpected token `{other}` in fields")),
                None => return Ok(fields),
            }
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err(format!("field `{field}` missing `:` (tuple struct?)")),
        }
        fields.push(field);
        // Skip the type up to the next top-level comma; `<`/`>` track
        // generic nesting (commas inside parens/brackets are hidden in
        // their own groups).
        let mut angle_depth = 0i32;
        loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                },
                Some(_) => {}
                None => return Ok(fields),
            }
        }
    }
}

/// The argument group of a `#[serde(...)]` attribute, given the attribute's
/// bracket group; `None` for any other attribute (doc comments included).
fn serde_attribute(attr: &proc_macro::Group) -> Option<proc_macro::Group> {
    let mut inner = attr.stream().into_iter();
    match (inner.next(), inner.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
            if id.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            Some(args)
        }
        _ => None,
    }
}

/// The names of `alias = "Name", ...` in a variant's `serde(...)` arguments.
fn parse_aliases(args: &proc_macro::Group) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut aliases = Vec::new();
    for entry in tokens.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
        match entry {
            [] => {}
            [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                if key.to_string() == "alias" && eq.as_char() == '=' =>
            {
                let lit = lit.to_string();
                match lit.strip_prefix('"').and_then(|l| l.strip_suffix('"')) {
                    Some(name) => aliases.push(name.to_string()),
                    None => return Err(format!("serde alias must be a string, found {lit}")),
                }
            }
            _ => {
                return Err(format!(
                    "serde shim derive supports only `alias = \"..\"`, found `{args}`"
                ))
            }
        }
    }
    Ok(aliases)
}

fn parse_unit_variants(body: TokenStream) -> Result<Vec<(String, Vec<String>)>, String> {
    let mut variants = Vec::new();
    let mut aliases = Vec::new();
    let mut tokens = body.into_iter();
    loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => match tokens.next() {
                Some(TokenTree::Group(g)) => {
                    if let Some(args) = serde_attribute(&g) {
                        aliases.extend(parse_aliases(&args)?);
                    }
                }
                _ => return Err("malformed variant attribute".into()),
            },
            Some(TokenTree::Ident(id)) => {
                let variant = (id.to_string(), std::mem::take(&mut aliases));
                match tokens.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                        variants.push(variant);
                    }
                    None => {
                        variants.push(variant);
                        return Ok(variants);
                    }
                    Some(TokenTree::Group(_)) => {
                        return Err(format!(
                            "serde shim derive does not support data-carrying variant `{}`",
                            variant.0
                        ))
                    }
                    Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                        // Explicit discriminant: skip tokens up to the comma.
                        variants.push(variant);
                        loop {
                            match tokens.next() {
                                Some(TokenTree::Punct(p)) if p.as_char() == ',' => break,
                                Some(_) => {}
                                None => return Ok(variants),
                            }
                        }
                    }
                    Some(other) => {
                        return Err(format!("unexpected token `{other}` after `{}`", variant.0))
                    }
                }
            }
            Some(other) => return Err(format!("unexpected token `{other}` in enum body")),
            None => return Ok(variants),
        }
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Derives the shim `serde::Serialize` (encode to `serde::Value`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(shape) => shape,
        Err(e) => return compile_error(&e),
    };
    let code = match shape {
        Shape::Struct { name, fields } => {
            let entries: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f})),"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Map(::std::vec![{entries}])\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|(v, _)| format!("Self::{v} => {v:?},"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Str(::std::string::String::from(\
                             match self {{ {arms} }}))\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse().unwrap()
}

/// Derives the shim `serde::Deserialize` (decode from `serde::Value`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(shape) => shape,
        Err(e) => return compile_error(&e),
    };
    let code = match shape {
        Shape::Struct { name, fields } => {
            let inits: String = fields
                .iter()
                .map(|f| format!("{f}: ::serde::Deserialize::from_value(v.field({f:?})?)?,"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) \
                         -> ::core::result::Result<Self, ::serde::DeError> {{\n\
                         ::core::result::Result::Ok(Self {{ {inits} }})\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|(v, aliases)| {
                    let names: String = aliases.iter().map(|a| format!(" | {a:?}")).collect();
                    format!("{v:?}{names} => ::core::result::Result::Ok(Self::{v}),")
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) \
                         -> ::core::result::Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             ::serde::Value::Str(s) => match s.as_str() {{\n\
                                 {arms}\n\
                                 other => ::core::result::Result::Err(::serde::DeError(\
                                     ::std::format!(\"unknown {name} variant `{{other}}`\"))),\n\
                             }},\n\
                             other => ::core::result::Result::Err(::serde::DeError(\
                                 ::std::format!(\"expected string for {name}, found {{}}\", \
                                     other.kind()))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse().unwrap()
}
