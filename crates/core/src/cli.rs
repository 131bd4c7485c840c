//! One argument parser for every binary of the workspace. A command reads
//! each flag by name and type ([`Args::value`], [`Args::switch`]), then its
//! operands ([`Args::positional`]), and [`Args::finish`] refuses whatever it
//! did not read. A flag is declared where it is read, so no list of accepted
//! flags can drift from the code, and a flag the command does not read is a
//! [`UsageError`] (exit [`EXIT_USAGE`]), never a no-op.
//!
//! A token that starts with `-` is a flag, never a value or an operand, and
//! a flag's value is the token after it. Read flags before operands: an
//! operand is the first token nothing has read yet.

use std::fmt;
use std::str::FromStr;

/// Exit code of a refused command line.
pub const EXIT_USAGE: u8 = 2;

/// What reading a command line returns.
pub type Result<T> = std::result::Result<T, UsageError>;

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// A flag `command` does not read: no command of the binary takes it,
    /// or only another one does.
    UnexpectedFlag { command: String, flag: String },
    /// The named operand is missing.
    MissingOperand(&'static str),
    /// An operand is left once the command has read all it takes.
    ExtraOperand(String),
    /// The flag is last or right before another flag, or is required and
    /// absent.
    MissingValue(String),
    /// `value`, given for the flag or operand `what`, is not `expected`.
    BadValue { what: String, value: String, expected: &'static str },
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::UnexpectedFlag { command, flag } => {
                write!(f, "`{command}` does not take {flag}")
            }
            UsageError::MissingOperand(name) => write!(f, "missing operand <{name}>"),
            UsageError::ExtraOperand(token) => write!(f, "unexpected operand `{token}`"),
            UsageError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            UsageError::BadValue { what, value, expected } => {
                write!(f, "bad {what} `{value}` (expected {expected})")
            }
        }
    }
}

impl std::error::Error for UsageError {}

impl UsageError {
    /// Prints the error and the command's usage line, then exits with
    /// [`EXIT_USAGE`].
    pub fn exit(&self, usage: &str) -> ! {
        eprintln!("error: {self}\nusage: {usage}");
        std::process::exit(EXIT_USAGE.into())
    }
}

/// Parses `value`, given for `what`, as a `T`.
pub fn parse<T: FromStr>(what: &str, value: String, expected: &'static str) -> Result<T> {
    value.parse().map_err(|_| UsageError::BadValue { what: what.into(), value, expected })
}

fn is_flag(token: &str) -> bool {
    token.len() > 1 && token.starts_with('-')
}

/// A command line being read; each token is read at most once.
#[derive(Debug, Clone)]
pub struct Args {
    command: String,
    /// `None` once read.
    tokens: Vec<Option<String>>,
}

impl Args {
    /// The command line `argv` of `command`, the name errors give.
    pub fn new(command: impl Into<String>, argv: impl IntoIterator<Item = String>) -> Args {
        Args { command: command.into(), tokens: argv.into_iter().map(Some).collect() }
    }

    /// This process's command line, named after its executable.
    pub fn from_env() -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let name = std::path::Path::new(&program).file_stem().map(|s| s.to_string_lossy());
        Args::new(name.unwrap_or_default(), argv)
    }

    /// The command as errors name it.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Reads the first token as the name of a subcommand, which the command
    /// then carries; `None` when the line is empty or starts with a flag.
    pub fn subcommand(&mut self) -> Option<String> {
        let name = self.tokens.first_mut()?.take_if(|t| !is_flag(t))?;
        self.command = format!("{} {name}", self.command);
        Some(name)
    }

    /// Whether `flag` was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let mut given = false;
        for token in self.tokens.iter_mut().filter(|t| t.as_deref() == Some(flag)) {
            *token = None;
            given = true;
        }
        given
    }

    /// The value after `flag`, parsed as a `T`; the last one given wins.
    pub fn value<T: FromStr>(&mut self, flag: &str, expected: &'static str) -> Result<Option<T>> {
        let mut found = None;
        for i in 0..self.tokens.len() {
            if self.tokens[i].as_deref() == Some(flag) {
                self.tokens[i] = None;
                let value = self.tokens.get_mut(i + 1).and_then(|t| t.take_if(|t| !is_flag(t)));
                found = Some(value.ok_or_else(|| UsageError::MissingValue(flag.into()))?);
            }
        }
        found.map(|v| parse(flag, v, expected)).transpose()
    }

    /// [`Args::value`] of a flag the command cannot run without.
    pub fn required<T: FromStr>(&mut self, flag: &str, expected: &'static str) -> Result<T> {
        self.value(flag, expected)?.ok_or_else(|| UsageError::MissingValue(flag.into()))
    }

    /// The next operand, `name` in the usage line.
    pub fn positional(&mut self, name: &'static str) -> Result<String> {
        let token = self.tokens.iter_mut().find(|t| t.as_deref().is_some_and(|t| !is_flag(t)));
        token.and_then(Option::take).ok_or(UsageError::MissingOperand(name))
    }

    /// Refuses the first flag left unread, then the first operand.
    pub fn finish(self) -> Result<()> {
        let left: Vec<String> = self.tokens.into_iter().flatten().collect();
        if let Some(flag) = left.iter().find(|t| is_flag(t)) {
            return Err(UsageError::UnexpectedFlag { command: self.command, flag: flag.clone() });
        }
        left.into_iter().next().map_or(Ok(()), |t| Err(UsageError::ExtraOperand(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::new("prog", argv.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn flags_and_operands_are_read_wherever_they_stand() {
        let mut a = args(&["--seed", "1", "in.mtx", "--overlap", "-o", "out", "12", "--seed", "7"]);
        assert_eq!(a.value::<u64>("--seed", "an integer"), Ok(Some(7)), "the last one wins");
        assert_eq!(a.required::<String>("-o", "a path").as_deref(), Ok("out"));
        assert_eq!((a.switch("--overlap"), a.switch("--bounds")), (true, false));
        assert_eq!(a.value::<u64>("--trials", "an integer"), Ok(None));
        assert_eq!(a.positional("matrix").as_deref(), Ok("in.mtx"));
        assert_eq!(a.positional("count").as_deref(), Ok("12"));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn what_the_command_does_not_read_is_refused() {
        let mut a = Args::new("recode", ["metrics", "m.mtx", "--trace", "t"].map(String::from));
        assert_eq!(a.subcommand().as_deref(), Some("metrics"));
        assert_eq!(a.positional("matrix.mtx").as_deref(), Ok("m.mtx"));
        let e = a.finish().unwrap_err();
        assert_eq!(e.to_string(), "`recode metrics` does not take --trace");
        assert_eq!(args(&["--trace"]).subcommand(), None);
        // A lone `-` is an operand.
        assert_eq!(args(&["-"]).finish(), Err(UsageError::ExtraOperand("-".into())));
        assert_eq!(args(&["--a"]).positional("m"), Err(UsageError::MissingOperand("m")));
    }

    #[test]
    fn a_value_is_never_a_flag_and_must_parse() {
        let mut a = args(&["--trace", "--overlap"]);
        assert_eq!(
            a.value::<String>("--trace", "a path"),
            Err(UsageError::MissingValue("--trace".into()))
        );
        assert_eq!(
            args(&[]).required::<String>("-o", "a path"),
            Err(UsageError::MissingValue("-o".into()))
        );
        let zero = args(&["--iters", "0"]).value::<std::num::NonZeroUsize>("--iters", "n >= 1");
        assert_eq!(zero.unwrap_err().to_string(), "bad --iters `0` (expected n >= 1)");
    }
}
