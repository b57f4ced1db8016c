//! Structured events: typed field values and the [`event!`](crate::event)
//! macro.
//!
//! An event is a named point with key/value fields, recorded into the
//! calling thread's current [`ProfileContext`](crate::ProfileContext)
//! (set by [`ProfileContext::enter`](crate::ProfileContext::enter)).
//! With no context entered, an emit site is one thread-local read and
//! the fields closure never runs, so a disabled emit allocates nothing.
//! There is no process-wide subscriber: an event lands in the profile
//! of the query (or test) that entered the context on that thread, and
//! nowhere else.

/// A typed event/span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (R², residuals, ratios).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (reasons, modes, names).
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl FieldValue {
    /// The value as u64 when it is one (tests and gates).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as text when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Record a structured event into the calling thread's current profile
/// context.
///
/// `event!("storage.retry.attempt", page = id, attempt)` — a bare
/// identifier uses the variable as both key and value. With no context
/// entered the fields are never built.
#[macro_export]
macro_rules! event {
    ($name:expr $(,)?) => {
        $crate::profile::emit($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident $(= $val:expr)?),+ $(,)?) => {
        $crate::profile::emit($name, || $crate::fields![$($key $(= $val)?),+])
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __field_value {
    ($key:ident) => {
        $key
    };
    ($key:ident = $val:expr) => {
        $val
    };
}
