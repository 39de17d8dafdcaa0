//! The two flag-parsing helpers every bin shares.

/// Remove `flag` and the value after it from `args` and return the
/// value. A flag with no value is a usage error: exits 2.
pub fn arg_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    if pos >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    Some(args.remove(pos))
}

/// Remove the bare switch `flag` from `args`; true if it was present.
pub fn arg_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    if let Some(pos) = pos {
        args.remove(pos);
    }
    pos.is_some()
}
