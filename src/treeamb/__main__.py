"""`python -m treeamb ...` runs the command-line front end."""

from .cli import main

main()
