//! One declarative shape checker for JSON values.
//!
//! A [`Shape`] says what type a value has and which plain constraints it
//! meets: a string (optionally one of a set), a number (optionally in a
//! range, optionally whole), a boolean, an object (required and optional
//! fields, optionally closed to unknown keys), or an array (optionally
//! length-bounded, with an item shape). [`check`] walks a parsed
//! [`Value`] against a shape and reports the first [`Violation`]: an
//! error code, a JSON pointer and a message. Objects are checked key scan
//! first, then field by field in declaration order; arrays item by item.
//! The walker recurses once per nesting level, which the parser bounds
//! ([`crate::json::MAX_DEPTH`]).
//!
//! Every artifact validator and every `fitsd` request decoder runs its
//! field, type and range checks through this walker, adding by hand only
//! the checks a shape cannot say (uniqueness, cross-field agreement, name
//! lookup). Decoders read fields one by one through [`object`] so those
//! checks interleave in a fixed order.
//!
//! ```
//! use fits_obs::json::parse;
//! use fits_obs::schema::{check, Field, Shape};
//!
//! static POINT: Shape = Shape::closed(&[
//!     Field::req("x y", Shape::NUM),
//!     Field::opt("label", Shape::STR),
//! ]);
//! assert!(check(&parse(r#"{"x": 1, "y": 2}"#).unwrap(), "", &POINT).is_ok());
//! let err = check(&parse(r#"{"x": "1"}"#).unwrap(), "", &POINT).unwrap_err();
//! assert_eq!((err.code, err.pointer.as_str()), ("bad_type", "/x"));
//! ```

use std::fmt;

use crate::json::Value;

/// What a JSON value must look like; built from the constants and
/// `const` constructors below, so descriptors can be `static`s.
#[derive(Debug)]
pub struct Shape(Kind);

#[derive(Debug)]
enum Kind {
    Any,
    Bool,
    /// A string in the list (any string when it is empty).
    Str(&'static [&'static str]),
    /// `(min, max, whole, expect)`: `min ≤ n ≤ max`, whole when asked;
    /// a non-empty `expect` replaces the bounds in the message.
    Num(f64, f64, bool, &'static str),
    /// `(fields, closed)`.
    Obj(&'static [Field], bool),
    /// `(item, min, max, message)`: `min..=max` items of shape `item`;
    /// `message` reports any other count.
    Arr(&'static Shape, usize, usize, &'static str),
}

impl Shape {
    /// Any value.
    pub const ANY: Shape = Shape(Kind::Any);
    /// A boolean.
    pub const BOOL: Shape = Shape(Kind::Bool);
    /// Any string.
    pub const STR: Shape = Shape(Kind::Str(&[]));
    /// Any number.
    pub const NUM: Shape = Shape::range(f64::NEG_INFINITY, f64::INFINITY);
    /// A number `≥ 0`.
    pub const NON_NEG: Shape = Shape::range(0.0, f64::INFINITY);
    /// A number `> 0`.
    pub const POSITIVE: Shape =
        Shape::range(0f64.next_up(), f64::INFINITY).expecting("a positive number");

    /// A string equal to one of `values`.
    #[must_use]
    pub const fn one_of(values: &'static [&'static str]) -> Shape {
        Shape(Kind::Str(values))
    }

    /// A number in `[min, max]` (for an open bound `(a, ...`, pass
    /// `a.next_up()`).
    #[must_use]
    pub const fn range(min: f64, max: f64) -> Shape {
        Shape(Kind::Num(min, max, false, ""))
    }

    /// A whole number in `[min, max]`.
    #[must_use]
    pub const fn int(min: f64, max: f64) -> Shape {
        Shape(Kind::Num(min, max, true, ""))
    }

    /// This number shape, saying it expected `expect` (e.g. `"a fraction
    /// in (0, 1]"`) instead of its bounds when a value falls outside them.
    #[must_use]
    pub const fn expecting(self, expect: &'static str) -> Shape {
        match self.0 {
            Kind::Num(min, max, whole, _) => Shape(Kind::Num(min, max, whole, expect)),
            other => Shape(other),
        }
    }

    /// An object with `fields`; undeclared keys are allowed.
    #[must_use]
    pub const fn obj(fields: &'static [Field]) -> Shape {
        Shape(Kind::Obj(fields, false))
    }

    /// An object with `fields`; an undeclared key is an `unknown_field`.
    #[must_use]
    pub const fn closed(fields: &'static [Field]) -> Shape {
        Shape(Kind::Obj(fields, true))
    }

    /// An array of any length whose items have shape `item`.
    #[must_use]
    pub const fn arr(item: &'static Shape) -> Shape {
        Shape(Kind::Arr(item, 0, usize::MAX, ""))
    }

    /// A non-empty array whose items have shape `item`.
    #[must_use]
    pub const fn non_empty(item: &'static Shape) -> Shape {
        Shape::arr(item).len(1, usize::MAX, "expected a non-empty array")
    }

    /// This array shape with `min..=max` items; `message` reports any
    /// other length.
    #[must_use]
    pub const fn len(self, min: usize, max: usize, message: &'static str) -> Shape {
        match self.0 {
            Kind::Arr(item, ..) => Shape(Kind::Arr(item, min, max, message)),
            other => Shape(other),
        }
    }
}

/// Declared object fields: one key, or several separated by spaces,
/// sharing a shape, and what an absent key reports when they are
/// required.
#[derive(Debug)]
pub struct Field(&'static str, Shape, Option<&'static str>);

impl Field {
    /// Required fields.
    #[must_use]
    pub const fn req(names: &'static str, shape: Shape) -> Field {
        Field(names, shape, Some("missing required field"))
    }

    /// Optional fields.
    #[must_use]
    pub const fn opt(names: &'static str, shape: Shape) -> Field {
        Field(names, shape, None)
    }

    /// These required fields, reporting `message` when absent.
    #[must_use]
    pub const fn missing(self, message: &'static str) -> Field {
        Field(self.0, self.1, Some(message))
    }

    fn names(&self) -> std::str::Split<'static, char> {
        self.0.split(' ')
    }
}

/// The first place a value departs from its shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// `"missing_field"`, `"bad_type"`, `"bad_value"` or
    /// `"unknown_field"`.
    pub code: &'static str,
    /// JSON pointer to the offending value (empty for the root).
    pub pointer: String,
    /// What was expected.
    pub message: String,
}

impl Violation {
    /// A violation of `code` at `pointer`.
    #[must_use]
    pub fn new(code: &'static str, pointer: &str, message: impl Into<String>) -> Violation {
        Violation {
            code,
            pointer: pointer.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pointer.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.pointer, self.message)
        }
    }
}

impl std::error::Error for Violation {}

/// Checks `v`, found at `pointer`, against `shape`.
///
/// # Errors
///
/// The first [`Violation`], in declaration order.
pub fn check(v: &Value, pointer: &str, shape: &Shape) -> Result<(), Violation> {
    let fail = |code, message: String| Err(Violation::new(code, pointer, message));
    match (&shape.0, v) {
        (Kind::Any, _) | (Kind::Bool, Value::Bool(_)) => Ok(()),
        (Kind::Str(one_of), Value::Str(s)) => {
            if one_of.is_empty() || one_of.contains(&s.as_str()) {
                return Ok(());
            }
            fail(
                "bad_value",
                format!("expected one of {one_of:?}, got {s:?}"),
            )
        }
        (&Kind::Num(min, max, whole, expect), &Value::Num(n)) => {
            if (min..=max).contains(&n) && (!whole || n.fract() == 0.0) {
                return Ok(());
            }
            let kind = if whole { "an integer" } else { "a number" };
            let expect = match expect {
                "" if max.is_finite() => format!("{kind} in [{min}, {max}]"),
                "" => format!("{kind} >= {min}"),
                expect => expect.to_string(),
            };
            fail("bad_value", format!("expected {expect}, got {n}"))
        }
        (Kind::Obj(fields, _), _) => {
            let obj = object(v, pointer, shape)?;
            let mut names = fields.iter().flat_map(Field::names);
            names.try_for_each(|name| obj.get(name).map(drop))
        }
        (Kind::Arr(..), _) => items(v, pointer, shape, |_, _| Ok(())),
        (Kind::Bool, _) => fail("bad_type", "expected a boolean".to_string()),
        (Kind::Str(_), _) => fail("bad_type", "expected a string".to_string()),
        (Kind::Num(..), _) => fail("bad_type", "expected a number".to_string()),
    }
}

/// An object whose type and keys have been checked; each declared field
/// is checked against its shape when read.
#[derive(Debug)]
pub struct Object<'v> {
    value: &'v Value,
    pointer: String,
    fields: &'static [Field],
}

/// Checks that `v` is an object and, when `shape` is closed, that it has
/// no undeclared keys (the first is reported, in document order).
///
/// # Errors
///
/// `bad_type` when `v` is not an object (or `shape` is not an object
/// shape), `unknown_field` for an undeclared key.
pub fn object<'v>(v: &'v Value, pointer: &str, shape: &Shape) -> Result<Object<'v>, Violation> {
    let (Kind::Obj(fields, closed), Value::Obj(members)) = (&shape.0, v) else {
        return Err(Violation::new("bad_type", pointer, "expected an object"));
    };
    let declared = fields.iter().flat_map(Field::names);
    let unknown = |(key, _): &&(String, Value)| *closed && !declared.clone().any(|n| n == key);
    if let Some((key, _)) = members.iter().find(unknown) {
        let allowed = declared.collect::<Vec<_>>().join(", ");
        let message = format!("unknown field (allowed: {allowed})");
        return Err(Violation::new(
            "unknown_field",
            &format!("{pointer}/{key}"),
            message,
        ));
    }
    Ok(Object {
        value: v,
        pointer: pointer.to_string(),
        fields,
    })
}

impl<'v> Object<'v> {
    /// Field `name` with its declared shape and pointer; `None` when an
    /// optional field is absent.
    fn lookup(&self, name: &str) -> Result<Option<(&'v Value, &'static Shape, String)>, Violation> {
        let pointer = format!("{}/{name}", self.pointer);
        let Some(field) = self.fields.iter().find(|f| f.names().any(|n| n == name)) else {
            return Err(Violation::new(
                "unknown_field",
                &pointer,
                "field not in the schema",
            ));
        };
        match (self.value.get(name), field.2) {
            (Some(v), _) => Ok(Some((v, &field.1, pointer))),
            (None, Some(message)) => Err(Violation::new("missing_field", &pointer, message)),
            (None, None) => Ok(None),
        }
    }

    /// Field `name` after checking it against its declared shape; `None`
    /// when an optional field is absent.
    ///
    /// # Errors
    ///
    /// `missing_field` for an absent required field, or the field's
    /// first [`Violation`].
    pub fn get(&self, name: &str) -> Result<Option<&'v Value>, Violation> {
        let Some((v, shape, pointer)) = self.lookup(name)? else {
            return Ok(None);
        };
        check(v, &pointer, shape).map(|()| Some(v))
    }

    /// Array field `name`, item by item: checks the array's type and
    /// length, then each item's shape followed by `each(item, pointer)`.
    /// Returns `false` when an optional field is absent.
    ///
    /// # Errors
    ///
    /// As [`Object::get`], or the first error `each` returns.
    pub fn each<E: From<Violation>>(
        &self,
        name: &str,
        each: impl FnMut(&'v Value, &str) -> Result<(), E>,
    ) -> Result<bool, E> {
        let Some((v, shape, pointer)) = self.lookup(name)? else {
            return Ok(false);
        };
        items(v, &pointer, shape, each).map(|()| true)
    }
}

fn items<'v, E: From<Violation>>(
    v: &'v Value,
    pointer: &str,
    shape: &Shape,
    mut each: impl FnMut(&'v Value, &str) -> Result<(), E>,
) -> Result<(), E> {
    let (Kind::Arr(item, min, max, message), Value::Arr(values)) = (&shape.0, v) else {
        return Err(Violation::new("bad_type", pointer, "expected an array").into());
    };
    if !(*min..=*max).contains(&values.len()) {
        return Err(Violation::new("bad_value", pointer, *message).into());
    }
    for (i, value) in values.iter().enumerate() {
        let pointer = format!("{pointer}/{i}");
        check(value, &pointer, item)?;
        each(value, &pointer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    static LEAF: Shape = Shape::closed(&[
        Field::req("id", Shape::one_of(&["a", "b"])),
        Field::opt("n", Shape::int(1.0, 4.0)),
        Field::opt(
            "f g",
            Shape::range(0f64.next_up(), 1.0).expecting("a fraction in (0, 1]"),
        ),
        Field::opt("p", Shape::POSITIVE),
        Field::opt("w", Shape::NON_NEG),
        Field::opt("on", Shape::BOOL),
    ]);
    static TREE: Shape = Shape::obj(&[
        Field::req("leaves", Shape::non_empty(&LEAF)).missing("leaves are required"),
        Field::opt("kids", Shape::arr(&TREE)),
    ]);

    fn first(text: &str) -> (&'static str, String, String) {
        let err = check(&parse(text).unwrap(), "", &TREE).unwrap_err();
        (err.code, err.pointer, err.message)
    }

    #[test]
    fn accepts_conforming_documents() {
        let doc = r#"{"leaves": [{"id": "a", "n": 4, "f": 1, "g": 0.5, "p": 2, "w": 0, "on": true}],
                      "kids": [{"leaves": [{"id": "b"}], "kids": []}], "extra": null}"#;
        assert_eq!(check(&parse(doc).unwrap(), "", &TREE), Ok(()));
    }

    #[test]
    fn reports_the_first_violation_with_its_pointer() {
        let cases = [
            ("[]", ("bad_type", "", "expected an object")),
            ("{}", ("missing_field", "/leaves", "leaves are required")),
            (
                r#"{"leaves": {}}"#,
                ("bad_type", "/leaves", "expected an array"),
            ),
            (
                r#"{"leaves": []}"#,
                ("bad_value", "/leaves", "expected a non-empty array"),
            ),
            (
                r#"{"leaves": [{"id": "c"}]}"#,
                (
                    "bad_value",
                    "/leaves/0/id",
                    r#"expected one of ["a", "b"], got "c""#,
                ),
            ),
            (
                r#"{"leaves": [{"id": "a", "x": 1, "n": 0}]}"#,
                (
                    "unknown_field",
                    "/leaves/0/x",
                    "unknown field (allowed: id, n, f, g, p, w, on)",
                ),
            ),
            (
                r#"{"leaves": [{"id": "a", "n": 2.5}]}"#,
                (
                    "bad_value",
                    "/leaves/0/n",
                    "expected an integer in [1, 4], got 2.5",
                ),
            ),
            (
                r#"{"leaves": [{"id": "a", "g": 0}]}"#,
                (
                    "bad_value",
                    "/leaves/0/g",
                    "expected a fraction in (0, 1], got 0",
                ),
            ),
            (
                r#"{"leaves": [{"id": "a", "p": 0}]}"#,
                (
                    "bad_value",
                    "/leaves/0/p",
                    "expected a positive number, got 0",
                ),
            ),
            (
                r#"{"leaves": [{"id": "a", "w": -1}]}"#,
                ("bad_value", "/leaves/0/w", "expected a number >= 0, got -1"),
            ),
            (
                r#"{"leaves": [{"id": "a", "on": 1}]}"#,
                ("bad_type", "/leaves/0/on", "expected a boolean"),
            ),
            (
                r#"{"leaves": [{"id": "a"}], "kids": [{"leaves": [{"id": 1}]}]}"#,
                ("bad_type", "/kids/0/leaves/0/id", "expected a string"),
            ),
        ];
        for (text, (code, pointer, message)) in cases {
            assert_eq!(
                first(text),
                (code, pointer.to_string(), message.to_string()),
                "{text}"
            );
        }
    }

    #[test]
    fn object_reads_fields_in_caller_order() {
        let v = parse(r#"{"id": 7, "n": 9}"#).unwrap();
        let obj = object(&v, "/leaf", &LEAF).unwrap();
        assert_eq!(obj.get("n").unwrap_err().pointer, "/leaf/n");
        assert_eq!(obj.get("id").unwrap_err().pointer, "/leaf/id");
        assert_eq!(obj.get("on"), Ok(None));
        assert_eq!(obj.get("zz").unwrap_err().code, "unknown_field");
    }

    #[test]
    fn each_interleaves_item_checks_with_the_callback() {
        let v = parse(r#"{"leaves": [{"id": "a"}, {"id": "a"}, {"id": 3}]}"#).unwrap();
        let obj = object(&v, "", &TREE).unwrap();
        let mut seen = Vec::new();
        let err = obj
            .each("leaves", |leaf, pointer| {
                let id = leaf.get("id").and_then(Value::as_str).unwrap_or_default();
                if seen.contains(&id) {
                    return Err(Violation::new("bad_value", pointer, "duplicate"));
                }
                seen.push(id);
                Ok(())
            })
            .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/leaves/1"));
        assert_eq!(obj.each("kids", |_, _| Ok::<_, Violation>(())), Ok(false));
    }

    #[test]
    fn violations_render_pointer_then_message() {
        let v = Violation::new("bad_type", "/a/0", "expected a string");
        assert_eq!(v.to_string(), "/a/0: expected a string");
        assert_eq!(Violation::new("bad_type", "", "x").to_string(), "x");
    }
}
