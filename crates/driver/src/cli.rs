//! The sequential flag parser every binary shares. It is sequential,
//! not a table, so order-dependent command lines (`fleet_worker`'s
//! `--tenant` groups, `bench_gate`'s pairs) fit the same loop.

use std::fmt;
use std::str::FromStr;

/// Exit status of a refused command line.
pub const EXIT_USAGE: i32 = 2;

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `-h` or `--help`: ends parsing like an error, but exits 0.
    Help,
    /// A flag (or stray positional argument) the binary does not know.
    UnknownFlag(String),
    /// A flag given last, without its value.
    MissingValue(String),
    /// A value that does not parse as its flag's type or range.
    BadValue {
        /// The flag.
        flag: String,
        /// The value as given.
        value: String,
    },
    /// Flags that parse one by one but not together, or a missing
    /// required flag.
    Invalid(String),
}

impl CliError {
    /// The error for an argument no match arm took.
    pub fn unexpected(arg: String) -> Self {
        match arg.as_str() {
            "-h" | "--help" => CliError::Help,
            _ => CliError::UnknownFlag(arg),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => f.write_str("help requested"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            CliError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            CliError::BadValue { flag, value } => write!(f, "bad value {value:?} for {flag}"),
            CliError::Invalid(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

/// The arguments of one command line, consumed front to back.
#[derive(Debug)]
pub struct Parser(std::vec::IntoIter<String>);

impl Parser {
    /// A parser over `args`, binary name excluded.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// The value after `flag`, converted by `convert` (`None` is a
    /// [`CliError::BadValue`]).
    pub fn value_with<T>(
        &mut self,
        flag: &str,
        convert: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        let raw = self
            .0
            .next()
            .ok_or_else(|| CliError::MissingValue(flag.to_string()))?;
        convert(&raw).ok_or_else(|| CliError::BadValue {
            flag: flag.to_string(),
            value: raw,
        })
    }

    /// The value after `flag`, parsed with [`FromStr`].
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        self.value_with(flag, |raw| raw.parse().ok())
    }

    /// A count of at least 1.
    pub fn nonzero(&mut self, flag: &str) -> Result<usize, CliError> {
        self.value_with(flag, |raw| raw.parse().ok().filter(|&n| n >= 1))
    }

    /// A finite quantity above zero (a rate, a duration).
    pub fn positive(&mut self, flag: &str) -> Result<f64, CliError> {
        let valid = |x: &f64| x.is_finite() && *x > 0.0;
        self.value_with(flag, |raw| raw.parse().ok().filter(valid))
    }
}

impl Iterator for Parser {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// How a binary refuses its command line.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Prefix of every refusal message.
    pub name: &'static str,
    /// Printed for `--help` and after every refusal.
    pub text: &'static str,
    /// Exit status of a refusal.
    pub exit_code: i32,
}

impl Usage {
    /// The usage of `name`, refused with [`EXIT_USAGE`].
    pub const fn new(name: &'static str, text: &'static str) -> Self {
        let exit_code = EXIT_USAGE;
        Self {
            name,
            text,
            exit_code,
        }
    }

    /// Runs `parse` over the process arguments. `--help` prints the
    /// usage text and exits 0; any other refusal prints the reason and
    /// the usage text to stderr and exits with `exit_code`.
    pub fn parse<T>(&self, parse: impl FnOnce(&mut Parser) -> Result<T, CliError>) -> T {
        let mut args = Parser::new(std::env::args().skip(1));
        parse(&mut args).unwrap_or_else(|e| {
            if e == CliError::Help {
                println!("{}", self.text);
                std::process::exit(0);
            }
            eprintln!("{}: {e}\n\n{}", self.name, self.text);
            std::process::exit(self.exit_code)
        })
    }

    /// Ends a run that could not start (a port, a file, a runtime that
    /// refused): the error on stderr, exit status `exit_code`.
    pub fn abort(&self, error: impl fmt::Display) -> ! {
        eprintln!("{}: {error}", self.name);
        std::process::exit(self.exit_code)
    }
}

/// The whole parser of a binary that takes no flags but `--help`.
pub fn no_flags(p: &mut Parser) -> Result<(), CliError> {
    p.next()
        .map_or(Ok(()), |arg| Err(CliError::unexpected(arg)))
}
