from .launch import main

main()
