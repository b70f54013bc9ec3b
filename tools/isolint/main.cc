/**
 * @file
 * isolint CLI: the shared linter CLI over isolint's rule set. See runCli in
 * lint.hh for usage and exit codes.
 */

#include "isolint.hh"

int
main(int argc, char **argv)
{
    return memsec::lint::runCli(memsec::isolint::ruleSet(), argc, argv);
}
